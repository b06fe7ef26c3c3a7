package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"paravis/internal/api"
	"paravis/internal/core"
	"paravis/internal/sim"
	"paravis/internal/store"
)

// newStoreServer boots a daemon with a persistent artifact store rooted
// at dir.
func newStoreServer(t *testing.T, dir string, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// metricValue scrapes one un-labeled series from GET /metrics.
func metricValue(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimPrefix(line, name+" "), 10, 64)
		if err != nil {
			t.Fatalf("metric %s: bad value in %q", name, line)
		}
		return v
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// referenceBundle renders the nymblesim on-disk bundle for one request.
func referenceBundle(t *testing.T, req api.RunRequest) map[string][]byte {
	t.Helper()
	p, err := core.Build(context.Background(), req.Source, core.BuildOptions{Defines: req.Defines})
	if err != nil {
		t.Fatal(err)
	}
	args, err := p.SizedArgs(req.Ints, req.Floats)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range req.Buffers {
		copyFloats(args.Buffers[name], data)
	}
	out, err := p.Run(context.Background(), args, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := out.WriteTrace(dir, "ref"); err != nil {
		t.Fatal(err)
	}
	if _, err := out.WriteTraceGz(dir, "refgz"); err != nil {
		t.Fatal(err)
	}
	ref := map[string][]byte{}
	for served, onDisk := range map[string]string{
		"trace.prv":    "ref.prv",
		"trace.pcf":    "ref.pcf",
		"trace.row":    "ref.row",
		"trace.prv.gz": "refgz.prv.gz",
	} {
		data, err := os.ReadFile(filepath.Join(dir, onDisk))
		if err != nil {
			t.Fatal(err)
		}
		ref[served] = data
	}
	return ref
}

func waitRun(t *testing.T, base string, req api.RunRequest) (*http.Response, api.Job) {
	t.Helper()
	req.Wait = true
	resp := postJSON(t, base+"/v1/run", req)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/run = %d: %s", resp.StatusCode, body)
	}
	var doc api.Job
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.State != api.JobDone {
		t.Fatalf("run state %s, error %q", doc.State, doc.Error)
	}
	return resp, doc
}

// sameSummary compares two run summaries via their canonical JSON (the
// struct holds maps, so == is unavailable).
func sameSummary(a, b *api.RunSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	aj, err1 := json.Marshal(a)
	bj, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(aj, bj)
}

func traceBytes(t *testing.T, base, jobID, file string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + jobID + "/trace/" + file)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace/%s = %d: %s", file, resp.StatusCode, body)
	}
	return body
}

// TestStoreSurvivesRestart is the durability acceptance test: run once,
// tear the daemon down, boot a fresh one on the same store directory,
// and the repeat request must be a warm hit — no simulation — serving
// the byte-identical nymblesim bundle.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := gemmRunRequest(16)
	ref := referenceBundle(t, req)

	s1, ts1 := newStoreServer(t, dir, Options{})
	resp, cold := waitRun(t, ts1.URL, req)
	if got := resp.Header.Get("X-Nymbled-Store"); got != "miss" {
		t.Fatalf("first run marked %q, want miss", got)
	}
	for file, want := range ref {
		if got := traceBytes(t, ts1.URL, cold.ID, file); !bytes.Equal(got, want) {
			t.Errorf("cold %s: %d bytes differ from nymblesim's %d", file, len(got), len(want))
		}
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Fresh process state, same disk.
	_, ts2 := newStoreServer(t, dir, Options{})
	resp2, warm := waitRun(t, ts2.URL, req)
	if got := resp2.Header.Get("X-Nymbled-Store"); got != "hit" {
		t.Fatalf("post-restart run marked %q, want hit", got)
	}
	if got := metricValue(t, ts2.URL, "nymbled_sims_started_total"); got != 0 {
		t.Fatalf("restarted daemon simulated %d times serving a warm hit", got)
	}
	if got := metricValue(t, ts2.URL, "nymbled_runs_from_store_total"); got != 1 {
		t.Fatalf("nymbled_runs_from_store_total = %d, want 1", got)
	}
	if !sameSummary(warm.Summary, cold.Summary) {
		t.Errorf("warm summary differs from cold:\nwarm %+v\ncold %+v", warm.Summary, cold.Summary)
	}
	for file, want := range ref {
		if got := traceBytes(t, ts2.URL, warm.ID, file); !bytes.Equal(got, want) {
			t.Errorf("warm %s: %d bytes differ from nymblesim's %d", file, len(got), len(want))
		}
	}
	// The warm hit must also re-persist nothing: the store still holds
	// exactly one entry.
	if got := metricValue(t, ts2.URL, "nymbled_store_entries"); got != 1 {
		t.Errorf("store holds %d entries after a warm hit, want 1", got)
	}
}

// TestCoalescedRunsShareOneSimulation fires N identical concurrent runs
// at a cold daemon and asserts exactly one simulation happened, the
// rest coalesced onto it, and every response carries the identical
// summary and trace bytes.
func TestCoalescedRunsShareOneSimulation(t *testing.T) {
	const n = 8
	// No artifact store here, deliberately: with one configured, a
	// request arriving after the leader finished would be a warm hit
	// rather than a coalesced share, and the assertion below would
	// depend on goroutine scheduling. Without it, every non-leader must
	// join the leader's flight (the 5 s window outlives the test's
	// serialized worst case).
	s := New(Options{Workers: 2, CoalesceWindow: 5 * time.Second})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	req := gemmRunRequest(16)
	req.Wait = true
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	type reply struct {
		mark string
		doc  api.Job
		err  error
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(data))
			if err != nil {
				replies[i].err = err
				return
			}
			defer resp.Body.Close()
			replies[i].mark = resp.Header.Get("X-Nymbled-Store")
			if resp.StatusCode != http.StatusOK {
				replies[i].err = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			replies[i].err = json.NewDecoder(resp.Body).Decode(&replies[i].doc)
		}(i)
	}
	wg.Wait()

	coalesced := 0
	for i, rp := range replies {
		if rp.err != nil {
			t.Fatalf("request %d: %v", i, rp.err)
		}
		if rp.doc.State != api.JobDone {
			t.Fatalf("request %d: state %s, error %q", i, rp.doc.State, rp.doc.Error)
		}
		if rp.mark == "coalesced" {
			coalesced++
		}
		if !sameSummary(rp.doc.Summary, replies[0].doc.Summary) {
			t.Errorf("request %d: summary differs from request 0", i)
		}
	}
	if got := metricValue(t, ts.URL, "nymbled_sims_started_total"); got != 1 {
		t.Fatalf("%d simulations for %d identical concurrent runs, want exactly 1", got, n)
	}
	if got := metricValue(t, ts.URL, "nymbled_coalesced_runs_total"); int(got) != coalesced {
		t.Errorf("nymbled_coalesced_runs_total = %d, headers counted %d", got, coalesced)
	}
	if coalesced == 0 {
		t.Error("no request reported coalescing")
	}

	first := traceBytes(t, ts.URL, replies[0].doc.ID, "trace.prv")
	for _, rp := range replies[1:] {
		if got := traceBytes(t, ts.URL, rp.doc.ID, "trace.prv"); !bytes.Equal(got, first) {
			t.Errorf("job %s trace differs from job %s", rp.doc.ID, replies[0].doc.ID)
		}
	}
}

// TestCoalesceSaturationSheds checks the size window: past CoalesceMax
// waiters the daemon sheds with 429 and a parseable Retry-After.
func TestCoalesceSaturationSheds(t *testing.T) {
	s, ts := newStoreServer(t, t.TempDir(), Options{
		Workers:        1,
		CoalesceWindow: time.Second,
		CoalesceMax:    1,
	})
	// Long pi run holds the only flight slot.
	slow := piRunRequest(200_000_000)
	slowBody, _ := json.Marshal(slow)
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(slowBody))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	// Wait until the leader's flight exists, then the next identical
	// request must be shed (MaxWaiters 1 = leader only).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := postJSON(t, ts.URL+"/v1/run", slow)
		if resp.StatusCode == http.StatusTooManyRequests {
			ra := resp.Header.Get("Retry-After")
			if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
				t.Fatalf("Retry-After %q not a positive integer", ra)
			}
			body := readAll(t, resp)
			var e api.Error
			if err := json.Unmarshal(body, &e); err != nil || e.Kind != "busy" {
				t.Fatalf("429 body not a busy error: %s", body)
			}
			break
		}
		readAll(t, resp)
		if time.Now().After(deadline) {
			t.Fatal("saturated coalescer never shed a request")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The leader's flight exists from Join while it compiles; its job is
	// stored only just before its 202 is written. Count and cancel jobs
	// after the leader's POST has returned, then unblock the leader so
	// Shutdown is quick.
	wg.Wait()
	jobs := 0
	s.jobs.Range(func(_, v any) bool {
		jobs++
		v.(*job).cancel(context.Canceled)
		v.(*job).markCanceled("test teardown")
		return true
	})
	if jobs == 0 {
		t.Error("no jobs registered")
	}
}

// TestHealthzReportsStoreStats checks the cache-shaped counters of
// /healthz: compile cache, artifact store and coalescer all present.
func TestHealthzReportsStoreStats(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), Options{})
	_, _ = waitRun(t, ts.URL, gemmRunRequest(8))

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var doc api.Health
	if err := json.Unmarshal(readAll(t, resp), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" {
		t.Fatalf("status %q", doc.Status)
	}
	if doc.CompileCache.Misses != 1 {
		t.Errorf("compile cache misses %d, want 1", doc.CompileCache.Misses)
	}
	if doc.Store == nil || doc.Store.Entries != 1 || doc.Store.Bytes <= 0 {
		t.Errorf("store stats missing or empty: %+v", doc.Store)
	}
	if doc.Coalescing == nil {
		t.Error("coalescing stats missing")
	}
}

// TestCanceledRunNotReplayedFromCoalescer: a canceled run must be
// forgotten by the coalescer immediately, so the next identical request
// re-executes instead of being served a lingering state=canceled result
// for the rest of the window.
func TestCanceledRunNotReplayedFromCoalescer(t *testing.T) {
	s := New(Options{Workers: 1, CoalesceWindow: time.Hour})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})

	long := piRunRequest(500_000_000)
	resp := postJSON(t, ts.URL+"/v1/run", long)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var leader api.Job
	if err := json.Unmarshal(readAll(t, resp), &leader); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, leader.ID, api.JobRunning, time.Minute)

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+leader.ID, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, delResp)

	// The canceled flight must be forgotten as soon as the simulation
	// exits: eventually a fresh identical POST becomes a new leader
	// whose job is queued or running, not a canceled replay.
	deadline := time.Now().Add(time.Minute)
	for {
		resp := postJSON(t, ts.URL+"/v1/run", long)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("repeat POST = %d: %s", resp.StatusCode, body)
		}
		var doc api.Job
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.State == api.JobQueued || doc.State == api.JobRunning {
			// Fresh leader: clean it up and stop.
			delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+doc.ID, nil)
			if delResp, err := http.DefaultClient.Do(delReq); err == nil {
				readAll(t, delResp)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("repeat request still replays the canceled flight: state %s", doc.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestLeaderCancelKeepsCoalescedFollowerRunning: canceling the leader's
// job while a coalesced follower is still attached must not kill the
// shared simulation — the follower detaches the leader, the sim runs on.
func TestLeaderCancelKeepsCoalescedFollowerRunning(t *testing.T) {
	s := New(Options{Workers: 1, CoalesceWindow: time.Second})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})

	long := piRunRequest(500_000_000)
	resp := postJSON(t, ts.URL+"/v1/run", long)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var leader api.Job
	if err := json.Unmarshal(readAll(t, resp), &leader); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, leader.ID, api.JobRunning, time.Minute)

	// Attach a synchronous follower to the leader's flight.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		follower := long
		follower.Wait = true
		resp := postJSON(t, ts.URL+"/v1/run", follower)
		readAll(t, resp)
	}()
	deadline := time.Now().Add(time.Minute)
	for metricValue(t, ts.URL, "nymbled_coalesced_runs_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Cancel the leader. The follower still wants the result, so the
	// simulation must keep running.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+leader.ID, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	var canceled api.Job
	if err := json.Unmarshal(readAll(t, delResp), &canceled); err != nil {
		t.Fatal(err)
	}
	if canceled.State != api.JobCanceled {
		t.Fatalf("leader after DELETE: state %s", canceled.State)
	}
	time.Sleep(200 * time.Millisecond)
	if got := metricValue(t, ts.URL, "nymbled_inflight_sims"); got != 1 {
		t.Errorf("leader cancel killed the shared simulation: inflight %d, want 1", got)
	}
	if got := metricValue(t, ts.URL, "nymbled_sims_finished_total"); got != 0 {
		t.Errorf("shared simulation exited after leader cancel (finished %d)", got)
	}

	// Teardown: cancel everything so the long pi run exits quickly.
	s.jobs.Range(func(_, v any) bool {
		j := v.(*job)
		j.cancel(context.Canceled)
		j.markCanceled("test teardown")
		return true
	})
	wg.Wait()
}

// TestJobReaperDropsFinishedJobs: finished job documents expire after
// JobTTL, bounding the registry on a long-running daemon.
func TestJobReaperDropsFinishedJobs(t *testing.T) {
	s := New(Options{Workers: 2, JobTTL: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})

	_, doc := waitRun(t, ts.URL, gemmRunRequest(8))
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never reaped")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := metricValue(t, ts.URL, "nymbled_jobs_reaped_total"); got < 1 {
		t.Errorf("nymbled_jobs_reaped_total = %d, want >= 1", got)
	}
}
