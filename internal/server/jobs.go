package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"paravis/internal/api"
	"paravis/internal/core"
	"paravis/internal/mem"
	"paravis/internal/parallel"
	"paravis/internal/sim"
	"paravis/internal/store"
)

// Artifact file names of a finished run, as stored and as served.
const (
	fileTracePRV   = "trace.prv"
	fileTracePRVGz = "trace.prv.gz"
	fileTracePCF   = "trace.pcf"
	fileTraceROW   = "trace.row"
	fileSummary    = "summary.json"
)

var traceFiles = []string{fileTracePRV, fileTracePRVGz, fileTracePCF, fileTraceROW}

// artifact is a finished run's byte bundle: either rendered in memory by
// the worker that simulated it, or backed by the persistent store.
type artifact struct {
	files map[string][]byte // in-memory form (nil when disk-backed)
	ent   store.Entry       // disk-backed form
	disk  bool
}

func (a *artifact) readFile(name string) ([]byte, error) {
	if a.disk {
		return a.ent.ReadFile(name)
	}
	data, ok := a.files[name]
	if !ok {
		return nil, fmt.Errorf("no artifact file %q", name)
	}
	return data, nil
}

// runResult is the outcome one leader shares with every request
// coalesced onto its flight.
type runResult struct {
	kernel  string
	state   string
	errMsg  string
	errKind string
	summary *api.RunSummary
	trace   []string
	art     *artifact
}

// job is one queued/running/finished simulation (or a handle on a
// stored/coalesced result). The job owns its context: DELETE
// /v1/jobs/{id}, a per-request timeout and server shutdown all cancel
// it, and the simulator's event loop notices.
type job struct {
	id     string
	cancel context.CancelCauseFunc
	done   chan struct{}

	// flight is the coalesced run flight this job is attached to (nil
	// otherwise); leads marks the job whose cancel owns the flight's
	// simulation. detached makes abandon idempotent.
	flight   *store.Flight
	leads    bool
	detached atomic.Bool

	mu        sync.Mutex
	state     string
	kernel    string
	errMsg    string
	errKind   string
	summary   *api.RunSummary
	trace     []string
	optimize  *api.OptimizeUnit // optimize jobs: the search report
	artifacts []string          // optimize jobs: downloadable files
	art       *artifact
	canceled  bool
	doneAt    time.Time // when the job reached a terminal state
}

func (j *job) snapshot() api.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.Job{
		SchemaVersion: api.Version,
		ID:            j.id,
		State:         j.state,
		Kernel:        j.kernel,
		Error:         j.errMsg,
		ErrorKind:     j.errKind,
		Summary:       j.summary,
		Trace:         j.trace,
		Optimize:      j.optimize,
		Artifacts:     j.artifacts,
	}
}

// setState transitions the job unless it was already canceled (a
// canceled job stays canceled even if the worker later reports in).
func (j *job) setState(state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.canceled {
		j.state = state
	}
}

func (j *job) markCanceled(reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == api.JobDone || j.state == api.JobFailed {
		return
	}
	j.canceled = true
	j.state = api.JobCanceled
	j.doneAt = time.Now()
	if j.errMsg == "" {
		j.errMsg = reason
		j.errKind = "canceled"
	}
}

// abandon is the client-side cancel path (DELETE /v1/jobs/{id}, a
// synchronous client disconnecting): the job detaches from its shared
// flight first, and a leader only cancels the underlying simulation
// when it was the last request attached — one client canceling must
// never kill a result other coalesced clients are still waiting on.
func (j *job) abandon(cause error) {
	if j.flight != nil {
		if !j.detached.CompareAndSwap(false, true) {
			return // already detached; the cancel decision was made
		}
		if left := j.flight.Detach(); j.leads && left > 0 {
			return // followers remain: the simulation keeps running for them
		}
	}
	j.cancel(cause)
}

// fill copies a shared run result into the job (no-op if the job was
// canceled first).
func (j *job) fill(res *runResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceled {
		return
	}
	j.state = res.state
	j.kernel = res.kernel
	j.errMsg = res.errMsg
	j.errKind = res.errKind
	j.summary = res.summary
	j.trace = res.trace
	j.art = res.art
	j.doneAt = time.Now()
	if res.state == api.JobCanceled {
		j.canceled = true
	}
}

// newJob registers a fresh job. cancel may be nil (jobs that never own a
// simulation context, e.g. store hits). f is the coalesced flight the
// job is attached to (nil for store hits); leads marks the flight's
// leader. Both are set before the job is published in the registry, so
// concurrent DELETE handlers read them safely.
func (s *Server) newJob(kernel string, cancel context.CancelCauseFunc, f *store.Flight, leads bool) *job {
	if cancel == nil {
		cancel = func(error) {}
	}
	n := s.jobSeq.next()
	id := fmt.Sprintf("job-%d", n)
	if s.cfg.NodeID != "" {
		id = fmt.Sprintf("job-%s-%d", s.cfg.NodeID, n)
	}
	j := &job{
		id:     id,
		cancel: cancel,
		done:   make(chan struct{}),
		state:  api.JobQueued,
		kernel: kernel,
		flight: f,
		leads:  leads,
	}
	s.jobs.Store(j.id, j)
	s.metrics.jobsCreated.Add(1)
	return j
}

// tenantOf labels the request for rate-limit accounting.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Nymbled-Tenant"); t != "" {
		return t
	}
	return "default"
}

// writeBusy sheds load: 429 with a parseable Retry-After, counted
// per tenant.
func (s *Server) writeBusy(w http.ResponseWriter, r *http.Request, err error) {
	s.metrics.rateLimited(tenantOf(r)).Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(1))
	writeError(w, http.StatusTooManyRequests, "busy", err)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if !decode(w, r, &req) {
		return
	}
	if s.closing() {
		writeError(w, http.StatusServiceUnavailable, "shutting_down",
			errors.New("server is shutting down"))
		return
	}

	// A request may lower the server's cycle ceiling but never raise it.
	// Clamping before the digest makes the key name the ceiling applied.
	ceiling := s.cfg.SimCfg.MaxCycles
	if ceiling <= 0 {
		ceiling = sim.DefaultMaxCycles
	}
	if req.MaxCycles > ceiling {
		req.MaxCycles = ceiling
	}
	digest := api.RunKey(&req)
	w.Header().Set("X-Nymbled-Run-Digest", digest)

	// Warm hit: the whole run — summary and trace bundle — is already on
	// disk under this digest. One store lookup replaces compile+simulate.
	if s.cfg.Store != nil {
		if ent, ok := s.cfg.Store.Get(digest); ok {
			if j, err := s.jobFromStore(ent); err == nil {
				w.Header().Set("X-Nymbled-Store", "hit")
				s.metrics.runsFromStore.Add(1)
				writeJSON(w, http.StatusOK, j.snapshot())
				return
			}
			// Entry evicted between Get and read: treat as a miss.
		}
		w.Header().Set("X-Nymbled-Store", "miss")
	}

	// Coalesce: identical in-flight (or Window-recent) runs share one
	// simulation. Followers attach a job to the leader's flight without
	// compiling or consuming a worker slot.
	f, leader, err := s.coal.Join(digest)
	if err != nil {
		s.writeBusy(w, r, err)
		return
	}
	if !leader {
		w.Header().Set("X-Nymbled-Store", "coalesced")
		s.serveFollower(w, r, &req, f)
		return
	}

	// Leader: compile synchronously (through the cache) so malformed
	// kernels fail the POST itself rather than a queued job.
	p, err := s.build(r.Context(), w, req.Source, buildOptions(req.Defines, req.VectorLanes))
	if err != nil {
		f.Finish(nil, err)
		writeBuildError(w, err)
		return
	}
	args, err := makeRunArgs(p, &req)
	if err != nil {
		f.Finish(nil, err)
		writeError(w, http.StatusUnprocessableEntity, "bad_args", err)
		return
	}
	cfg := s.cfg.SimCfg
	cfg.Profile.Enabled = !req.NoProfile
	if req.MaxCycles > 0 {
		cfg.MaxCycles = req.MaxCycles
	}

	// The job outlives the POST: its context descends from Background,
	// not the request, so an async client may disconnect freely. Wait
	// mode ties the two together below.
	ctx, cancelCause := context.WithCancelCause(context.Background())
	cancelTimer := context.CancelFunc(func() {})
	if req.TimeoutMs > 0 {
		ctx, cancelTimer = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
	}
	cancel := func(cause error) {
		cancelCause(cause)
		cancelTimer()
	}

	j := s.newJob(p.Kernel.Name, cancel, f, true)
	task := func() {
		defer close(j.done)
		defer cancel(errors.New("job finished"))
		res := s.runJob(ctx, j, p, args, cfg, digest)
		if res.state == api.JobDone {
			f.Finish(res, nil)
		} else {
			// Canceled, deadline and failed outcomes must not linger in
			// the coalescer: finishing with an error forgets the flight
			// immediately (already-attached followers still share res),
			// so the next identical request re-executes instead of
			// replaying a dead result.
			f.Finish(res, errRunNotShareable)
		}
	}
	err = s.pool.TrySubmit(task, s.cfg.MaxQueue)
	if err != nil {
		s.jobs.Delete(j.id)
		f.Finish(nil, err)
		if errors.Is(err, parallel.ErrQueueFull) {
			s.writeBusy(w, r, err)
			return
		}
		writeError(w, http.StatusServiceUnavailable, "shutting_down", err)
		return
	}

	if !req.Wait {
		writeJSON(w, http.StatusAccepted, j.snapshot())
		return
	}
	// Synchronous mode: the client waits for the result, so the client
	// going away cancels the simulation and frees the worker slot —
	// unless coalesced followers are still attached to the flight, in
	// which case the simulation keeps running for them.
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Don't wait for j.done here: if followers kept the simulation
		// alive, it may run long after this client is gone.
		j.abandon(context.Cause(r.Context()))
		j.markCanceled("client disconnected")
	}
	doc := j.snapshot()
	writeJSON(w, waitStatus(doc), doc)
}

// errRunNotShareable marks a flight whose run did not complete: the
// result is still delivered to already-attached followers, but the
// flight must not linger for new joiners.
var errRunNotShareable = errors.New("run did not complete; not shareable")

// serveFollower attaches a job to another request's flight: when the
// leader finishes, the follower's job is filled with the shared result.
func (s *Server) serveFollower(w http.ResponseWriter, r *http.Request, req *api.RunRequest, f *store.Flight) {
	jctx, cancelCause := context.WithCancelCause(context.Background())
	j := s.newJob("", cancelCause, f, false)
	go func() {
		defer close(j.done)
		select {
		case <-f.Done():
			j.fill(flightResult(f))
		case <-jctx.Done():
			j.markCanceled("canceled by client")
		}
	}()

	if !req.Wait {
		writeJSON(w, http.StatusAccepted, j.snapshot())
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		j.abandon(context.Cause(r.Context()))
		j.markCanceled("client disconnected")
		<-j.done
	}
	doc := j.snapshot()
	writeJSON(w, waitStatus(doc), doc)
}

// flightResult normalizes a flight outcome into a fillable result: a
// leader that never reached the simulator (compile error, full queue)
// fails every coalesced job the same way. A flight finished with a
// runResult attached shares it regardless of the error — the error only
// controls whether the flight lingers for new joiners.
func flightResult(f *store.Flight) *runResult {
	v, err := f.Result()
	if res, ok := v.(*runResult); ok {
		return res
	}
	if err == nil {
		err = errors.New("internal: flight finished without a result")
	}
	kind := "compile_error"
	switch {
	case errors.Is(err, parallel.ErrQueueFull):
		kind = "busy"
	case isCtxErr(err):
		kind = "canceled"
	}
	return &runResult{state: api.JobFailed, errMsg: err.Error(), errKind: kind}
}

// waitStatus maps a finished job document onto the synchronous-mode
// HTTP status: cycle-budget overruns are the request's fault (422), not
// a server failure (500).
func waitStatus(doc api.Job) int {
	switch doc.State {
	case api.JobDone:
		return http.StatusOK
	case api.JobCanceled:
		if doc.ErrorKind == "deadline" {
			return http.StatusGatewayTimeout
		}
		return 499
	default:
		switch doc.ErrorKind {
		case "max_cycles", "compile_error":
			return http.StatusUnprocessableEntity
		case "deadline":
			return http.StatusGatewayTimeout
		case "busy":
			return http.StatusTooManyRequests
		default:
			return http.StatusInternalServerError
		}
	}
}

// runJob executes one simulation on a pool worker, fills the leader's
// job, and persists the finished artifact so every later identical
// request is a disk read.
func (s *Server) runJob(ctx context.Context, j *job, p *core.Program, args sim.Args, cfg sim.Config, digest string) *runResult {
	j.setState(api.JobRunning)
	s.metrics.simsStarted.Add(1)
	out, err := p.Run(ctx, args, cfg)
	s.metrics.simsFinished.Add(1)
	res := &runResult{kernel: p.Kernel.Name}
	if err != nil {
		res.errMsg = err.Error()
		var maxErr *sim.ErrMaxCycles
		var canErr *sim.ErrCanceled
		switch {
		case errors.As(err, &maxErr):
			res.state = api.JobFailed
			res.errKind = "max_cycles"
		case errors.As(err, &canErr):
			res.state = api.JobCanceled
			res.errKind = "canceled"
			if errors.Is(err, context.DeadlineExceeded) {
				res.errKind = "deadline"
			}
		default:
			res.state = api.JobFailed
			res.errKind = "run_error"
		}
		j.fill(res)
		return res
	}
	res.state = api.JobDone
	res.summary = api.NewRunSummary(p, out)
	files, rerr := renderArtifact(out)
	if rerr != nil {
		res.state = api.JobFailed
		res.errMsg = rerr.Error()
		res.errKind = "run_error"
		j.fill(res)
		return res
	}
	if out.Streams != nil {
		res.trace = traceFiles
	}
	res.art = &artifact{files: files}
	s.persist(digest, res, files)
	j.fill(res)
	return res
}

// persist writes the finished run into the artifact store (when one is
// configured). Storage failures are counted, not fatal: the in-memory
// artifact still serves this job.
func (s *Server) persist(digest string, res *runResult, files map[string][]byte) {
	if s.cfg.Store == nil {
		return
	}
	doc := api.StoredRun{
		SchemaVersion: api.Version,
		Kernel:        res.kernel,
		Summary:       res.summary,
		Trace:         res.trace,
	}
	var buf bytes.Buffer
	if err := api.Encode(&buf, doc); err != nil {
		s.metrics.storeErrors.Add(1)
		return
	}
	stored := make(map[string][]byte, len(files)+1)
	for name, data := range files {
		stored[name] = data
	}
	stored[fileSummary] = buf.Bytes()
	if err := s.cfg.Store.Put(digest, stored); err != nil {
		s.metrics.storeErrors.Add(1)
		return
	}
	// The bundle is durable now: swap the result's artifact to its
	// disk-backed form so finished jobs stop pinning the full trace
	// bytes in memory. (An eviction before the client downloads the
	// trace surfaces as 410 Gone, same as any stored artifact.)
	if ent, ok := s.cfg.Store.Handle(digest); ok {
		res.art = &artifact{ent: ent, disk: true}
	}
}

// jobFromStore rebuilds a done job from a persisted artifact: the
// summary document restores the job fields, the trace bundle serves
// straight from disk.
func (s *Server) jobFromStore(ent store.Entry) (*job, error) {
	data, err := ent.ReadFile(fileSummary)
	if err != nil {
		return nil, err
	}
	var doc api.StoredRun
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("corrupt stored summary: %w", err)
	}
	j := s.newJob(doc.Kernel, nil, nil, false)
	j.mu.Lock()
	j.state = api.JobDone
	j.summary = doc.Summary
	j.trace = doc.Trace
	j.art = &artifact{ent: ent, disk: true}
	j.doneAt = time.Now()
	j.mu.Unlock()
	close(j.done)
	return j, nil
}

// renderArtifact writes the run's Paraver bundle into memory, using the
// same writers nymblesim streams to disk — so the bytes served (and
// stored) are identical to the CLI's files. Profiling-disabled runs
// produce an empty bundle.
func renderArtifact(out *core.RunOutput) (map[string][]byte, error) {
	if out.Streams == nil {
		return map[string][]byte{}, nil
	}
	st := out.Streams
	files := make(map[string][]byte, 4)
	var prv bytes.Buffer
	if err := st.WritePRV(&prv); err != nil {
		return nil, err
	}
	files[fileTracePRV] = prv.Bytes()
	// BestSpeed matches the on-disk WriteBundleGz path byte for byte.
	var gzBuf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&gzBuf, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := gz.Write(prv.Bytes()); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	files[fileTracePRVGz] = gzBuf.Bytes()
	var pcf bytes.Buffer
	if err := st.WritePCF(&pcf); err != nil {
		return nil, err
	}
	files[fileTracePCF] = pcf.Bytes()
	var row bytes.Buffer
	if err := st.WriteROW(&row); err != nil {
		return nil, err
	}
	files[fileTraceROW] = row.Bytes()
	return files, nil
}

// makeRunArgs sizes the kernel's buffers from its map clauses and
// preloads any the request supplied, mirroring nymblesim's argument
// handling.
func makeRunArgs(p *core.Program, req *api.RunRequest) (sim.Args, error) {
	args, err := p.SizedArgs(req.Ints, req.Floats)
	if err != nil {
		return sim.Args{}, err
	}
	for name, data := range req.Buffers {
		buf, ok := args.Buffers[name]
		if !ok {
			return sim.Args{}, fmt.Errorf("buffer %q is not a mapped pointer of kernel %s", name, p.Kernel.Name)
		}
		if len(data) > len(buf.Words) {
			return sim.Args{}, fmt.Errorf("buffer %q holds %d elements, got %d", name, len(buf.Words), len(data))
		}
		copy(buf.Words, mem.FloatsToWords(data))
	}
	return args, nil
}

func (s *Server) findJob(w http.ResponseWriter, r *http.Request) *job {
	v, ok := s.jobs.Load(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Errorf("no job %q", r.PathValue("id")))
		return nil
	}
	return v.(*job)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if j := s.findJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.findJob(w, r)
	if j == nil {
		return
	}
	j.abandon(errors.New("canceled by client"))
	j.markCanceled("canceled by client")
	writeJSON(w, http.StatusOK, j.snapshot())
}

func traceContentType(name string) string {
	switch name {
	case fileTracePRVGz:
		return "application/gzip"
	default:
		return "text/plain; charset=utf-8"
	}
}

// handleTrace serves one Paraver bundle file from the job's artifact —
// rendered by the run's own writers or read back from the persistent
// store, byte-identical to the files nymblesim puts on disk either way.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.findJob(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	art := j.art
	state := j.state
	hasTrace := len(j.trace) > 0
	j.mu.Unlock()
	if state != api.JobDone {
		writeError(w, http.StatusConflict, "not_done",
			fmt.Errorf("job %s is %s, not done", j.id, state))
		return
	}
	if art == nil || !hasTrace {
		writeError(w, http.StatusNotFound, "no_trace",
			fmt.Errorf("job %s has no trace (profiling disabled)", j.id))
		return
	}
	name := r.PathValue("file")
	valid := false
	for _, f := range traceFiles {
		if f == name {
			valid = true
			break
		}
	}
	if !valid {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Errorf("no bundle file %q", name))
		return
	}
	data, err := art.readFile(name)
	if err != nil {
		// Disk-backed artifact evicted since the job was served: the
		// result is gone, the client should re-run the request.
		writeError(w, http.StatusGone, "evicted",
			fmt.Errorf("artifact for job %s no longer available: %v", j.id, err))
		return
	}
	w.Header().Set("Content-Type", traceContentType(name))
	if _, err := w.Write(data); err != nil {
		s.metrics.traceErrors.Add(1)
	}
}

// maxRequestBody bounds one request body; a variable so tests can
// shrink it.
var maxRequestBody int64 = api.MaxBodyBytes

// newStrictDecoder parses request bodies with unknown fields rejected,
// so typos in request JSON surface as 400s instead of silent defaults.
// Reading past maxRequestBody fails with *http.MaxBytesError.
func newStrictDecoder(w http.ResponseWriter, r *http.Request) *json.Decoder {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	return dec
}
