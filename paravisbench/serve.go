package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paravis/internal/api"
	"paravis/internal/paraver"
	"paravis/internal/paraver/analysis"
	"paravis/internal/perfbound"
	"paravis/internal/server"
	"paravis/internal/store"
	"paravis/internal/workloads"
)

// The serve workload: an in-process nymbled (server.New over a fresh
// store.Open directory, behind httptest) driven by a closed loop of
// `workers` clients. Every pass replays the same seeded request sequence
// against a fresh store, so each pass misses every key once and misses
// keep occurring throughout the pass, interleaved with hits.
const (
	serveRuns      = 128 // POST /v1/run per pass; every key at least once
	serveVets      = 6   // POST /v1/vet per pass
	servePerfs     = 6   // POST /v1/perf per pass
	serveDownloads = 0.10
	zipfExponent   = 1.1
	// coalesceWindow is nymbled's default -coalesce-window.
	coalesceWindow = 100 * time.Millisecond
)

type reqKind int

const (
	kindRun reqKind = iota
	kindVet
	kindPerf
)

type serveReq struct {
	kind     reqKind
	key      int  // index into keys (runs) or units (vet, perf)
	download bool // follow the run with GET .../trace/trace.prv
}

// serveKey is one distinct run: a seed unit at one size and thread
// count. Runs carry no buffers (the server zero-fills them, as nymblesim
// does), so every hit costs the same and the seed changes only which
// requests come when: a hit's latency must not depend on which keys the
// seed makes popular.
type serveKey struct {
	name string
	body []byte
}

type serve struct {
	seed int64

	keys  []serveKey
	units [][2][]byte // per seed unit: vet and perf request bodies
	rng   *rand.Rand  // the seeded stream every pass's sequence comes from
	seq   []serveReq  // the current pass's requests

	dir string
	srv *server.Server
	ts  *httptest.Server

	retired []node // replaced nodes awaiting shutdown

	lat []time.Duration // request latencies of untraced passes

	// Traced passes only: latencies by response class, 429s.
	classes map[string][]time.Duration
	shed    int

	classN map[string]int // responses per class, all passes

	mu sync.Mutex // guards the fields below, which both clients write
	// bodies holds, per key, this pass's run bodies with the job ID
	// blanked; every hit and coalesced body must equal the miss body.
	bodies map[int][]bodySeen
	diags  int     // vet diagnostics (traced passes)
	brkSum float64 // perf bracket upper/lower ratios (traced passes)
	brkN   int
}

type bodySeen struct {
	class string
	body  string
}

func newServe(seed int64) *serve {
	return &serve{seed: seed, rng: rand.New(rand.NewSource(seed)), classes: map[string][]time.Duration{}, classN: map[string]int{}}
}

// gemmSizes and threadCounts span the run key space: 5 GEMM versions x
// 2 sizes x 2 thread counts, plus pi at 2 step counts x 2 thread counts.
var (
	gemmSizes    = []int64{16, 32}
	piSteps      = []int64{6400, 25600}
	threadCounts = []int{2, 8}
)

// inputs builds the request bodies.
func (s *serve) inputs() error {
	s.keys = s.keys[:0]
	s.units = s.units[:0]
	for _, u := range workloads.Units() {
		vet, err := json.Marshal(api.VetRequest{SchemaVersion: api.Version, Name: u.Name, Source: u.Source, Defines: u.Defines})
		if err != nil {
			return err
		}
		perf, err := json.Marshal(api.PerfRequest{SchemaVersion: api.Version, Name: u.Name, Source: u.Source, Defines: u.Defines, Params: u.Params})
		if err != nil {
			return err
		}
		s.units = append(s.units, [2][]byte{vet, perf})
		for _, nt := range threadCounts {
			defines := map[string]string{}
			for k, v := range u.Defines {
				defines[k] = v
			}
			defines["NT"] = strconv.Itoa(nt)
			if _, gemm := u.Params["DIM"]; gemm {
				for _, dim := range gemmSizes {
					if err := s.addKey(fmt.Sprintf("%s/DIM=%d/NT=%d", u.Name, dim, nt), api.RunRequest{
						Source: u.Source, Defines: defines,
						Ints: map[string]int64{"DIM": dim},
					}); err != nil {
						return err
					}
				}
				continue
			}
			for _, steps := range piSteps {
				if err := s.addKey(fmt.Sprintf("%s/steps=%d/NT=%d", u.Name, steps, nt), api.RunRequest{
					Source: u.Source, Defines: defines,
					Ints:   map[string]int64{"steps": steps, "threads": int64(nt)},
					Floats: map[string]float64{"step": 1 / float64(steps), "final_sum": 0},
				}); err != nil {
					return err
				}
			}
		}
	}

	return nil
}

// sequence draws one pass's request sequence from the seeded stream:
// Zipf-style popularity over a ranking of the keys, plus each key once,
// so every key misses exactly once per pass. Each pass draws a new
// ranking and order, so neither one order's tail (a slow miss sent last)
// nor one ranking (a popular key with a large trace) sets the median.
func (s *serve) sequence() {
	rng := s.rng
	rank := rng.Perm(len(s.keys))
	cdf := make([]float64, len(rank))
	total := 0.0
	for i := range rank {
		total += 1 / math.Pow(float64(i+1), zipfExponent)
		cdf[i] = total
	}
	var runs []serveReq
	for k := range s.keys {
		runs = append(runs, serveReq{kind: kindRun, key: k})
	}
	for len(runs) < serveRuns {
		x := rng.Float64() * total
		i := 0
		for cdf[i] < x {
			i++
		}
		runs = append(runs, serveReq{kind: kindRun, key: rank[i]})
	}
	for i := range runs {
		runs[i].download = rng.Float64() < serveDownloads
	}
	seq := runs
	for i := 0; i < serveVets; i++ {
		seq = append(seq, serveReq{kind: kindVet, key: rng.Intn(len(s.units))})
	}
	for i := 0; i < servePerfs; i++ {
		seq = append(seq, serveReq{kind: kindPerf, key: rng.Intn(len(s.units))})
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	s.seq = seq
}

func (s *serve) addKey(name string, req api.RunRequest) error {
	req.SchemaVersion = api.Version
	req.Wait = true
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	s.keys = append(s.keys, serveKey{name: name, body: body})
	return nil
}

// setup generates the inputs and boots a fresh node: a new store
// directory, store.Open, server.New and an httptest listener. The node it
// replaces is shut down outside the timed set-up.
func (s *serve) setup(ctx context.Context) error {
	if s.ts != nil {
		s.retired = append(s.retired, node{s.dir, s.srv, s.ts})
	}
	if err := s.inputs(); err != nil {
		return err
	}
	base := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "store-*")
	if err != nil {
		return err
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	s.dir = dir
	s.srv = server.New(server.Options{Workers: workers, Store: st, CoalesceWindow: coalesceWindow})
	s.ts = httptest.NewServer(s.srv.Handler())
	return nil
}

// node is one booted nymbled with its store directory.
type node struct {
	dir string
	srv *server.Server
	ts  *httptest.Server
}

// teardown shuts down the retired nodes.
func (s *serve) teardown() {
	for _, n := range s.retired {
		n.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = n.srv.Shutdown(ctx) // nothing is in flight between passes
		cancel()
		os.RemoveAll(n.dir)
	}
	s.retired = nil
}

func (s *serve) close() {
	if s.ts != nil {
		s.retired = append(s.retired, node{s.dir, s.srv, s.ts})
		s.ts = nil
	}
	s.teardown()
}

func (s *serve) pass(ctx context.Context, r *run, tr *tracer) (time.Duration, error) {
	s.teardown()
	s.sequence()
	s.bodies = map[int][]bodySeen{}

	type outcome struct {
		lat   time.Duration
		class string
		get   time.Duration
		err   error
	}
	outs := make([]outcome, len(s.seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer transport.CloseIdleConnections()
			client := &http.Client{Transport: transport}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.seq) {
					return
				}
				o := &outs[i]
				if o.err = ctx.Err(); o.err != nil {
					continue
				}
				o.lat, o.class, o.get, o.err = s.do(ctx, client, s.seq[i], tr)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)

	for _, o := range outs {
		r.op(o.err)
		s.classN[o.class]++
		if tr == nil {
			s.lat = append(s.lat, o.lat)
			continue
		}
		var se *statusError
		if errors.As(o.err, &se) && se.code == http.StatusTooManyRequests {
			s.shed++
		}
		if o.err == nil {
			s.classes[o.class] = append(s.classes[o.class], o.lat-o.get)
			if o.get > 0 {
				s.classes["trace_get"] = append(s.classes["trace_get"], o.get)
			}
		}
	}
	r.op(s.checkBodies())
	if tr != nil {
		if err := s.serverCounts(ctx, tr); err != nil {
			r.op(err)
		}
	}

	// The next pass gets a fresh node; booting it here, right after the
	// pass, times every set-up with the same warm heap.
	t1 := time.Now()
	if err := s.setup(ctx); err != nil {
		return 0, err
	}
	r.setups = append(r.setups, time.Since(t1))
	return wall, nil
}

// do sends one request of the sequence and checks its response. lat
// covers the whole request, the trace download included; get is the
// download's share.
func (s *serve) do(ctx context.Context, client *http.Client, q serveReq, tr *tracer) (lat time.Duration, class string, get time.Duration, err error) {
	o := tr.op("serve.request")
	defer o.end()
	t0 := time.Now()
	switch q.kind {
	case kindVet, kindPerf:
		class, route := "vet", "/v1/vet"
		if q.kind == kindPerf {
			class, route = "perf", "/v1/perf"
		}
		sp := o.child("server." + class)
		body, _, err := s.post(ctx, client, route, s.units[q.key][q.kind-kindVet])
		sp.end()
		lat = time.Since(t0)
		if err != nil {
			return lat, class, 0, err
		}
		return lat, class, 0, s.checkStatic(q.kind, body, tr)
	}

	key := s.keys[q.key]
	sp := o.child("server.run")
	body, hdr, err := s.post(ctx, client, "/v1/run", key.body)
	sp.end()
	if err != nil {
		return time.Since(t0), "", 0, fmt.Errorf("%s: %w", key.name, err)
	}
	class = hdr.Get("X-Nymbled-Store")
	var job api.Job
	if err := json.Unmarshal(body, &job); err != nil {
		return time.Since(t0), class, 0, fmt.Errorf("%s: decode job: %w", key.name, err)
	}
	if job.State != api.JobDone || job.Summary == nil {
		return time.Since(t0), class, 0, fmt.Errorf("%s: job %s (%s)", key.name, job.State, job.Error)
	}
	var prv []byte
	if q.download {
		t1 := time.Now()
		sp := o.child("server.trace_get")
		prv, err = s.get(ctx, client, "/v1/jobs/"+job.ID+"/trace/trace.prv")
		sp.end()
		get = time.Since(t1)
	}
	lat = time.Since(t0)
	if err != nil {
		return lat, class, get, fmt.Errorf("%s: trace: %w", key.name, err)
	}
	// Checks run after the latency is taken. Bodies are compared with
	// the job ID blanked: every request gets its own job.
	norm := strings.Replace(string(body), strconv.Quote(job.ID), `""`, 1)
	s.mu.Lock()
	s.bodies[q.key] = append(s.bodies[q.key], bodySeen{class: class, body: norm})
	s.mu.Unlock()
	if q.download {
		stats := analysis.NewStreamStats(80, 64)
		sp := o.child("paraver.scan")
		err = paraver.ScanPRV(bytes.NewReader(prv), stats)
		sp.end()
		tr.add("paraver.prv_bytes", float64(len(prv)))
		if err != nil {
			return lat, class, get, fmt.Errorf("%s: downloaded trace does not parse: %w", key.name, err)
		}
		if stats.Hdr.EndTime != job.Summary.Cycles {
			return lat, class, get, fmt.Errorf("%s: trace ends at %d, run took %d cycles", key.name, stats.Hdr.EndTime, job.Summary.Cycles)
		}
	}
	return lat, class, get, nil
}

// checkStatic checks a vet or perf report: the seed units are vet-clean
// and every unit gets a bound report.
func (s *serve) checkStatic(kind reqKind, body []byte, tr *tracer) error {
	// Only the fields checked are decoded: staticcheck.Severity does not
	// unmarshal.
	var rep struct {
		Units []struct {
			Clean       bool              `json:"clean"`
			Diagnostics []json.RawMessage `json:"diagnostics"`
			Error       string            `json:"error"`
			Report      *struct {
				Cycles perfbound.CycleBounds `json:"cycles"`
			} `json:"report"`
		} `json:"units"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("decode report: %w", err)
	}
	if len(rep.Units) != 1 {
		return fmt.Errorf("%d units in the report, want 1", len(rep.Units))
	}
	u := rep.Units[0]
	if kind == kindVet {
		if !u.Clean {
			return fmt.Errorf("vet: seed unit not clean: %s", body)
		}
		if tr != nil {
			s.mu.Lock()
			s.diags += len(u.Diagnostics)
			s.mu.Unlock()
		}
		return nil
	}
	if u.Error != "" || u.Report == nil {
		return fmt.Errorf("perf: no bound report: %s", body)
	}
	if b := u.Report.Cycles; tr != nil && b.UpperKnown && b.Lower > 0 {
		s.mu.Lock()
		s.brkSum += float64(b.Upper) / float64(b.Lower)
		s.brkN++
		s.mu.Unlock()
	}
	return nil
}

// checkBodies requires every hit and coalesced body of a key to equal
// its miss body, job ID aside (each request gets its own job).
func (s *serve) checkBodies() error {
	for k, seen := range s.bodies {
		var miss string
		for _, b := range seen {
			if b.class == "miss" {
				miss = b.body
			}
		}
		if miss == "" {
			return fmt.Errorf("%s: no miss among %d responses", s.keys[k].name, len(seen))
		}
		for _, b := range seen {
			if b.body != miss {
				return fmt.Errorf("%s: %s body differs from the miss body", s.keys[k].name, b.class)
			}
		}
	}
	return nil
}

func (s *serve) post(ctx context.Context, client *http.Client, route string, body []byte) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+route, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return s.send(client, req)
}

func (s *serve) get(ctx context.Context, client *http.Client, route string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+route, nil)
	if err != nil {
		return nil, err
	}
	b, _, err := s.send(client, req)
	return b, err
}

func (s *serve) send(client *http.Client, req *http.Request) ([]byte, http.Header, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, &statusError{req.Method + " " + req.URL.Path, resp.StatusCode, string(b)}
	}
	return b, resp.Header, nil
}

type statusError struct {
	req  string
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("%s: status %d: %s", e.req, e.code, e.body) }

// serverCounts reads the node's counters after a traced pass: simulations
// started from /metrics, and the store and coalescer counters from
// /healthz (the same counters /metrics exports, plus puts).
func (s *serve) serverCounts(ctx context.Context, tr *tracer) error {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	b, err := s.get(ctx, client, "/metrics")
	if err != nil {
		return err
	}
	sims := -1.0
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "nymbled_sims_started_total "); ok {
			sims, err = strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("metrics: %w", err)
			}
		}
	}
	if sims < 0 {
		return fmt.Errorf("metrics: no nymbled_sims_started_total")
	}
	b, err = s.get(ctx, client, "/healthz")
	if err != nil {
		return err
	}
	var h api.Health
	if err := json.Unmarshal(b, &h); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if h.Store == nil || h.Coalescing == nil {
		return fmt.Errorf("healthz: no store or coalescing counters")
	}
	tr.add("server.sims_started_total", sims)
	tr.add("server.keys", float64(len(s.bodies)))
	tr.add("store.hits", float64(h.Store.Hits))
	tr.add("store.lookups", float64(h.Store.Hits+h.Store.Misses))
	tr.add("store.puts", float64(h.Store.Puts))
	tr.add("store.bytes", float64(h.Store.Bytes))
	tr.add("store.coalesced", float64(h.Coalescing.Coalesced))
	return nil
}

func (s *serve) requests(r *run) []time.Duration { return s.lat }

func (s *serve) layers(tr *tracer, passes int, m map[string]float64) {
	spanMetrics(tr, passes, m)
	// Service latencies are per-class medians, not self-time sums.
	for _, c := range []string{"hit", "miss", "coalesced", "vet", "perf", "trace_get"} {
		m["server."+c+"_ms"] = ms(median(s.classes[c]))
	}
	m["server.shed"] = float64(s.shed) / float64(passes)
	if k := m["server.keys"]; k > 0 {
		m["server.sims_started"] = m["server.sims_started_total"] / k
	}
	if n := m["store.lookups"]; n > 0 {
		m["store.hit_ratio"] = m["store.hits"] / n
	}
	m["staticcheck.diagnostics"] = float64(s.diags) / float64(passes)
	if s.brkN > 0 {
		m["perfbound.bracket_ratio"] = s.brkSum / float64(s.brkN)
	}
}

func (s *serve) report(w io.Writer, r *run) {
	fmt.Fprintf(w, "serve: in-process nymbled, %d clients closed loop, %d workers, seed %d\n", workers, workers, r.seed)
	fmt.Fprintf(w, "  per pass: %d requests (%d runs over %d keys, %.0f%% with trace download; %d vet; %d perf), fresh store\n",
		len(s.seq), serveRuns, len(s.keys), serveDownloads*100, serveVets, servePerfs)
	fmt.Fprintf(w, "  passes: %d untraced, %d traced; responses by class: %s\n", len(r.passes), len(r.traced), counts(s.classN))
}
