package fleet

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"paravis/internal/api"
)

// Handler returns the dispatcher's route table: the registration and
// introspection endpoints, plus the whole /v1 API proxied across the
// fleet.
func (d *Dispatcher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/v1/register", d.handleRegister)
	mux.HandleFunc("GET /fleet/v1/workers", d.handleWorkers)
	mux.HandleFunc("POST /v1/run", d.proxy(true))
	mux.HandleFunc("POST /v1/compile", d.proxy(false))
	mux.HandleFunc("POST /v1/vet", d.proxy(false))
	mux.HandleFunc("POST /v1/perf", d.proxy(false))
	mux.HandleFunc("GET /v1/jobs/{id}", d.proxyJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", d.proxyJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace/{file}", d.proxyJob)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = api.Encode(w, v)
}

func writeErr(w http.ResponseWriter, status int, kind string, err error) {
	writeJSON(w, status, api.Error{SchemaVersion: api.Version, Err: err.Error(), Kind: kind})
}

// registerAuthorized checks the shared registration secret (when one is
// configured) in constant time, from either the Authorization bearer or
// the X-Nymbled-Fleet-Token header.
func (d *Dispatcher) registerAuthorized(r *http.Request) bool {
	want := d.opts.RegisterToken
	if want == "" {
		return true
	}
	got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	if t := r.Header.Get("X-Nymbled-Fleet-Token"); t != "" {
		got = t
	}
	return subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1
}

// validWorkerURL admits only plain http(s) URLs with a host — the
// advertised address is dialed by the dispatcher and receives forwarded
// tenant requests, so it must not smuggle credentials, queries or
// non-HTTP schemes.
func validWorkerURL(raw string) error {
	u, err := url.Parse(raw)
	if err != nil {
		return fmt.Errorf("bad worker url: %v", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("worker url scheme must be http or https, got %q", u.Scheme)
	}
	if u.Host == "" {
		return errors.New("worker url has no host")
	}
	if u.User != nil || u.RawQuery != "" || u.Fragment != "" {
		return errors.New("worker url must not carry credentials, query or fragment")
	}
	return nil
}

func (d *Dispatcher) handleRegister(w http.ResponseWriter, r *http.Request) {
	if !d.registerAuthorized(r) {
		writeErr(w, http.StatusUnauthorized, "unauthorized",
			errors.New("registration requires the fleet token"))
		return
	}
	var req struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.URL == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", errors.New("body must be {\"url\":\"http://worker\"}"))
		return
	}
	if err := validWorkerURL(req.URL); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	wk := d.Add(req.URL)
	writeJSON(w, http.StatusOK, map[string]any{
		"version": api.Version,
		"url":     wk.url,
		"healthy": wk.healthy.Load(),
		"workers": len(d.snapshot()),
	})
}

// WorkerInfo is one registry row of GET /fleet/v1/workers.
type WorkerInfo struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	InFlight int64  `json:"in_flight"`
	Proxied  int64  `json:"proxied"`
	Retries  int64  `json:"retries"`
	Errors   int64  `json:"errors"`
}

func (d *Dispatcher) workerInfos() []WorkerInfo {
	var infos []WorkerInfo
	for _, wk := range d.snapshot() {
		infos = append(infos, WorkerInfo{
			URL:      wk.url,
			Healthy:  wk.healthy.Load(),
			InFlight: wk.inflight.Load(),
			Proxied:  wk.proxied.Load(),
			Retries:  wk.retries.Load(),
			Errors:   wk.errors.Load(),
		})
	}
	return infos
}

func (d *Dispatcher) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"version": api.Version,
		"workers": d.workerInfos(),
	})
}

func (d *Dispatcher) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := len(d.healthyWorkers())
	doc := map[string]any{
		"version": api.Version,
		"status":  "ok",
		"workers": len(d.snapshot()),
		"healthy": healthy,
	}
	if healthy == 0 {
		doc["status"] = "no_workers"
		writeJSON(w, http.StatusServiceUnavailable, doc)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Nymbled-Tenant"); t != "" {
		return t
	}
	return "default"
}

// admit applies the per-tenant token bucket; false means the 429 has
// been written.
func (d *Dispatcher) admit(w http.ResponseWriter, r *http.Request) bool {
	tc := d.tenant(tenantOf(r))
	tc.requests.Add(1)
	if d.limiter == nil {
		return true
	}
	ok, wait := d.limiter.allow(tenantOf(r), time.Now())
	if ok {
		return true
	}
	tc.shed.Add(1)
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeErr(w, http.StatusTooManyRequests, "rate_limited",
		fmt.Errorf("tenant %q over its request rate, retry in %ds", tenantOf(r), secs))
	return false
}

// proxy forwards one stateless-routable POST across the fleet. Run
// requests route by digest affinity; compile/vet/perf route least-loaded.
// All of them are idempotent (content-addressed, deterministic), so a
// worker failing mid-request is retried on the next candidate with
// bounded backoff — except asynchronous run submissions that failed
// after the connection was established, where the first worker may
// already own a live job (see forward).
func (d *Dispatcher) proxy(isRun bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !d.admit(w, r) {
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, api.MaxBodyBytes))
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		digest := ""
		retryMid := !isRun
		if isRun {
			var req api.RunRequest
			// Routing only: the worker itself re-validates strictly.
			if err := json.Unmarshal(body, &req); err == nil {
				digest = api.RunKey(&req)
				// A synchronous run holds the client on the line; a
				// mid-request failure there is retried because the client
				// is still waiting on a result. An async submission is
				// fire-and-forget: the worker may have accepted the job
				// before the transport broke, so a blind retry would
				// orphan a duplicate simulation on it.
				retryMid = req.Wait
			}
		}
		d.forward(w, r, body, digest, isRun, retryMid)
	}
}

// isDialError reports whether the forward failed before the connection
// was even established — the only transport failure that guarantees the
// worker never saw the request.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// forward tries the request on each candidate worker in affinity order.
// retryMid allows retrying after a transport failure that happened once
// the connection was up (when false, only dial failures — where the
// worker provably never received the request — move to the next node;
// the client can safely resubmit, and content addressing makes the
// resubmission a warm hit or a coalesced join).
func (d *Dispatcher) forward(w http.ResponseWriter, r *http.Request, body []byte, digest string, isRun, retryMid bool) {
	cands := d.candidates(digest)
	if len(cands) == 0 {
		writeErr(w, http.StatusServiceUnavailable, "no_workers", errors.New("no healthy workers registered"))
		return
	}
	attempts := d.opts.MaxAttempts
	if attempts > len(cands) {
		attempts = len(cands)
	}
	var lastErr error
	tried := 0
	for i := 0; i < attempts; i++ {
		wk := cands[i]
		if i > 0 {
			wk.retries.Add(1)
			backoff := d.opts.RetryBackoff << (i - 1)
			select {
			case <-time.After(backoff):
			case <-r.Context().Done():
				writeErr(w, 499, "canceled", r.Context().Err())
				return
			}
		}
		tried++
		resp, respBody, err := d.send(wk, r, body)
		if err != nil {
			// Transport failure: the worker is gone or the job died with
			// it. Mark it unroutable.
			wk.errors.Add(1)
			wk.healthy.Store(false)
			lastErr = err
			if !retryMid && !isDialError(err) {
				break
			}
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable && i < attempts-1 {
			// Worker draining for shutdown: try the next one.
			lastErr = fmt.Errorf("%s: %s", wk.url, resp.Status)
			continue
		}
		if isRun && resp.StatusCode < 300 {
			d.recordJobOwner(respBody, wk)
		}
		copyResponse(w, resp, respBody)
		return
	}
	writeErr(w, http.StatusBadGateway, "fleet_error",
		fmt.Errorf("dispatch failed after %d attempt(s): %v", tried, lastErr))
}

// send forwards the buffered request to one worker and buffers the
// response, so a failure anywhere before the last byte can still be
// retried on another node.
func (d *Dispatcher) send(wk *worker, r *http.Request, body []byte) (*http.Response, []byte, error) {
	wk.inflight.Add(1)
	defer wk.inflight.Add(-1)
	url := wk.url + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	for _, h := range []string{"Content-Type", "Accept", "X-Nymbled-Tenant"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := d.opts.Client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, api.MaxBodyBytes))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: reading response: %w", wk.url, err)
	}
	wk.proxied.Add(1)
	wk.lastSeen.Store(time.Now().UnixNano())
	return resp, respBody, nil
}

// recordJobOwner learns which worker owns a freshly created job, so
// polls, cancels and trace downloads route to it. Worker job IDs are
// fleet-unique (nymbled -node), so the map never collides.
func (d *Dispatcher) recordJobOwner(respBody []byte, wk *worker) {
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(respBody, &doc); err == nil && doc.ID != "" {
		d.jobs.Store(doc.ID, wk.url)
	}
}

// copyResponse relays a buffered worker response to the client,
// preserving the nymbled headers (cache/store/digest markers).
func copyResponse(w http.ResponseWriter, resp *http.Response, body []byte) {
	for _, h := range []string{"Content-Type", "X-Nymbled-Cache", "X-Nymbled-Store", "X-Nymbled-Run-Digest", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// proxyJob routes job reads, cancels and trace downloads to the worker
// that owns the job. Ownership is sticky: there is no cross-node retry,
// because the job state lives only on its node (a lost node's jobs are
// re-run by resubmitting — they are content-addressed, so the rerun is
// a warm hit anywhere the artifact was replicated).
func (d *Dispatcher) proxyJob(w http.ResponseWriter, r *http.Request) {
	if !d.admit(w, r) {
		return
	}
	id := r.PathValue("id")
	v, ok := d.jobs.Load(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", fmt.Errorf("no job %q routed through this dispatcher", id))
		return
	}
	d.mu.Lock()
	wk := d.workers[v.(string)]
	d.mu.Unlock()
	if wk == nil {
		writeErr(w, http.StatusBadGateway, "fleet_error", fmt.Errorf("job %q's worker is no longer registered", id))
		return
	}
	resp, respBody, err := d.send(wk, r, nil)
	if err != nil {
		wk.errors.Add(1)
		wk.healthy.Store(false)
		writeErr(w, http.StatusBadGateway, "fleet_error", fmt.Errorf("job %q's worker failed: %v", id, err))
		return
	}
	copyResponse(w, resp, respBody)
}

// handleMetrics renders the per-tenant and per-node counters in the
// Prometheus text format.
func (d *Dispatcher) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	d.tm.Lock()
	tenants := make([]string, 0, len(d.tenants))
	for t := range d.tenants {
		tenants = append(tenants, t)
	}
	d.tm.Unlock()
	sortStrings(tenants)

	fmt.Fprintln(w, "# HELP nymbled_dispatch_requests_total Requests admitted to routing, by tenant.")
	fmt.Fprintln(w, "# TYPE nymbled_dispatch_requests_total counter")
	for _, t := range tenants {
		fmt.Fprintf(w, "nymbled_dispatch_requests_total{tenant=%q} %d\n", t, d.tenant(t).requests.Load())
	}
	fmt.Fprintln(w, "# HELP nymbled_dispatch_rate_limited_total Requests shed with 429, by tenant.")
	fmt.Fprintln(w, "# TYPE nymbled_dispatch_rate_limited_total counter")
	for _, t := range tenants {
		fmt.Fprintf(w, "nymbled_dispatch_rate_limited_total{tenant=%q} %d\n", t, d.tenant(t).shed.Load())
	}

	infos := d.workerInfos()
	fmt.Fprintln(w, "# HELP nymbled_dispatch_workers Registered workers.")
	fmt.Fprintln(w, "# TYPE nymbled_dispatch_workers gauge")
	fmt.Fprintf(w, "nymbled_dispatch_workers %d\n", len(infos))
	healthy := 0
	for _, in := range infos {
		if in.Healthy {
			healthy++
		}
	}
	fmt.Fprintln(w, "# HELP nymbled_dispatch_healthy_workers Workers passing health checks.")
	fmt.Fprintln(w, "# TYPE nymbled_dispatch_healthy_workers gauge")
	fmt.Fprintf(w, "nymbled_dispatch_healthy_workers %d\n", healthy)

	fmt.Fprintln(w, "# HELP nymbled_dispatch_node_healthy Worker health (1 = routable), by node.")
	fmt.Fprintln(w, "# TYPE nymbled_dispatch_node_healthy gauge")
	for _, in := range infos {
		h := 0
		if in.Healthy {
			h = 1
		}
		fmt.Fprintf(w, "nymbled_dispatch_node_healthy{node=%q} %d\n", in.URL, h)
	}
	fmt.Fprintln(w, "# HELP nymbled_dispatch_node_inflight Requests currently forwarded to the node.")
	fmt.Fprintln(w, "# TYPE nymbled_dispatch_node_inflight gauge")
	for _, in := range infos {
		fmt.Fprintf(w, "nymbled_dispatch_node_inflight{node=%q} %d\n", in.URL, in.InFlight)
	}
	fmt.Fprintln(w, "# HELP nymbled_dispatch_proxied_total Responses successfully relayed, by node.")
	fmt.Fprintln(w, "# TYPE nymbled_dispatch_proxied_total counter")
	for _, in := range infos {
		fmt.Fprintf(w, "nymbled_dispatch_proxied_total{node=%q} %d\n", in.URL, in.Proxied)
	}
	fmt.Fprintln(w, "# HELP nymbled_dispatch_retries_total Dispatch attempts beyond the first, by node retried onto.")
	fmt.Fprintln(w, "# TYPE nymbled_dispatch_retries_total counter")
	for _, in := range infos {
		fmt.Fprintf(w, "nymbled_dispatch_retries_total{node=%q} %d\n", in.URL, in.Retries)
	}
	fmt.Fprintln(w, "# HELP nymbled_dispatch_errors_total Transport failures forwarding to the node.")
	fmt.Fprintln(w, "# TYPE nymbled_dispatch_errors_total counter")
	for _, in := range infos {
		fmt.Fprintf(w, "nymbled_dispatch_errors_total{node=%q} %d\n", in.URL, in.Errors)
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
