package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the call. Records are append-only; every aggregate
// (self time, per-name totals) is computed afterwards from the raw list.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Req    int    `json:"req"`    // operation (request) the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer records spans for one goroutine. A nil *tracer is the untraced
// pass: do runs the function and records nothing, so the same workload
// code serves both passes.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new operation: spans recorded until the next call share
// its request id.
func (t *tracer) nextOp() {
	if t != nil {
		t.req++
	}
}

// do times f as a span named name, nested under the span open on this
// tracer (if any).
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	f()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// merge appends other's spans, rebasing ids and request ids so they stay
// unique; clock offsets between tracers created at different times are
// kept (Start/End stay relative to each tracer's own creation).
func (t *tracer) merge(other *tracer) {
	base, reqBase := len(t.spans), t.req
	for _, s := range other.spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Req += reqBase
		t.spans = append(t.spans, s)
	}
	t.req += other.req
}

// spanAgg is the per-name aggregate of a span list.
type spanAgg struct {
	Count int
	Total float64   // Σ duration, seconds
	Self  float64   // Σ (duration − direct children), seconds
	Durs  []float64 // every duration, seconds, in record order
}

// aggregate folds spans by name. Self time is a span's duration minus the
// part of it covered by its direct children.
func aggregate(spans []span) map[string]*spanAgg {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.seconds()
		}
	}
	out := make(map[string]*spanAgg)
	for i, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &spanAgg{}
			out[s.Name] = a
		}
		d := s.seconds()
		a.Count++
		a.Total += d
		a.Self += d - child[i]
		a.Durs = append(a.Durs, d)
	}
	return out
}

// traceFile is the on-disk form of one workload's traced pass.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path, workload string, seed uint64, spans []span) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
