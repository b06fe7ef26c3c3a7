package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records one span per layer call made from the benchmark's own
// code: name, start, end, parent span and the operation (design, search
// or request) it belongs to. Counts are recorded at the same call sites.
// Spans stay in memory and are written out once the run ends. A nil
// *tracer is the untraced mode: every method is a no-op, so the timed
// runs pay only a nil check.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	nextOp int
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// ref names an open span; the zero value belongs to no tracer.
type ref struct {
	tr *tracer
	id int
	op int
}

// op opens the root span of a new operation.
func (t *tracer) op(name string) ref {
	if t == nil {
		return ref{}
	}
	t.mu.Lock()
	op := t.nextOp
	t.nextOp++
	t.mu.Unlock()
	return t.open(name, -1, op)
}

func (t *tracer) open(name string, parent, op int) ref {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return ref{tr: t, id: len(t.spans) - 1, op: op}
}

// child opens a span under r.
func (r ref) child(name string) ref {
	if r.tr == nil {
		return ref{}
	}
	return r.tr.open(name, r.id, r.op)
}

// end closes the span.
func (r ref) end() {
	if r.tr == nil {
		return
	}
	now := time.Since(r.tr.t0).Nanoseconds()
	r.tr.mu.Lock()
	r.tr.spans[r.id].End = now
	r.tr.mu.Unlock()
}

// add accumulates a count recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its child spans cover. Children of one span never overlap: every
// operation's spans are opened and closed by one goroutine.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

// dump writes the spans and counts as JSON lines under dir.
func (t *tracer) dump(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	err = enc.Encode(map[string]any{"counts": t.counts})
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
