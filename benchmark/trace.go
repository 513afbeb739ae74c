package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Spans nest through Parent; the spans
// of one request share Request (0 for spans outside any request).
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Request int64  `json:"request,omitempty"`
	Name    string `json:"name"`  // the called function, e.g. "core.Model.Solve"
	Layer   string `json:"layer"` // the layer it is charged to, e.g. "mdp"
	// Probe marks a direct measurement call that has no counterpart in
	// the untraced pass; tracing overhead excludes it.
	Probe bool          `json:"probe,omitempty"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Tracer records spans in memory; they are written out once the run ends.
// A nil *Tracer records nothing, so untraced code paths pay one nil check.
// Safe for concurrent use.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) begin(parent int, request int64, name, layer string) int {
	if t == nil {
		return 0
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Request: request, Name: name, Layer: layer, Start: start, End: -1})
	return id
}

// end closes span id.
func (t *Tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *Tracer) do(parent int, name, layer string, f func() error) error {
	id := t.begin(parent, 0, name, layer)
	defer t.end(id)
	return f()
}

// probe runs f inside a span marked as a probe.
func (t *Tracer) probe(parent int, name, layer string, f func() error) error {
	id := t.begin(parent, 0, name, layer)
	if id != 0 {
		t.mu.Lock()
		t.spans[id-1].Probe = true
		t.mu.Unlock()
	}
	defer t.end(id)
	return f()
}

// snapshot returns a copy of the recorded spans.
func (t *Tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans writes the set-up spans and each traced pass's spans to path
// as JSON. Span times count from the start of their own tracer.
func writeSpans(path string, setup []Span, passes [][]Span) error {
	b, err := json.Marshal(struct {
		Setup  []Span   `json:"setup"`
		Passes [][]Span `json:"passes"`
	}{setup, passes})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes charges every span's self time — its duration minus the part of
// its interval its child spans cover — to the span's layer. The returned
// total equals the summed duration of the root spans, so layer self times
// always account for the traced wall time. Unclosed spans are ignored.
func selfTimes(spans []Span) (byLayer map[string]time.Duration, total time.Duration) {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.End >= 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byLayer = make(map[string]time.Duration)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		self := (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
		byLayer[s.Layer] += self
		if s.Parent == 0 {
			total += s.End - s.Start
		}
	}
	return byLayer, total
}

// covered returns the length of [start, end) covered by the union of the
// spans' intervals; overlapping children (concurrent calls) count once.
func covered(start, end time.Duration, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	var curA, curB time.Duration = -1, -1
	for _, v := range iv {
		if v[0] > curB {
			if curB > curA {
				sum += curB - curA
			}
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	if curB > curA {
		sum += curB - curA
	}
	return sum
}
