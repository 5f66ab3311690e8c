package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Every unit has one root span (Parent 0) named
// after the unit kind, and one child per layer call the benchmark makes
// while running it. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of a traced run in memory; they are written out
// only when the run ends, so recording costs two clock reads per call.
type tracer struct {
	t0    time.Time
	units atomic.Int64
	mu    sync.Mutex
	spans []span // span i has ID i+1
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// unitTrace collects the spans of one unit on the goroutine running it and
// hands them to the tracer when the unit ends.
type unitTrace struct {
	tr    *tracer
	unit  int
	spans []span
}

// unit starts the spans of a new unit, opening its root span.
func (t *tracer) unit(name string) *unitTrace {
	u := &unitTrace{tr: t, unit: int(t.units.Add(1))}
	u.open(name, -1)
	return u
}

// begin opens a child span of the unit's root and returns its index.
func (u *unitTrace) begin(name string) int { return u.open(name, 0) }

// open appends a span whose parent is the span at index parent of this
// unit (-1 for the root).
func (u *unitTrace) open(name string, parent int) int {
	u.spans = append(u.spans, span{Parent: parent, Unit: u.unit, Name: name, Start: int64(time.Since(u.tr.t0))})
	return len(u.spans) - 1
}

func (u *unitTrace) end(i int) { u.spans[i].End = int64(time.Since(u.tr.t0)) }

// finish closes the root span and publishes the unit's spans with
// tracer-wide ids.
func (u *unitTrace) finish() {
	u.end(0)
	t := u.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans) + 1
	for i, s := range u.spans {
		s.ID = base + i
		if s.Parent >= 0 {
			s.Parent += base
		} else {
			s.Parent = 0
		}
		t.spans = append(t.spans, s)
	}
}

// all returns a copy of every published span.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (children of one unit never overlap: a unit runs
// its calls in sequence).
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerShare is one span name's self time as a share of unit time.
type layerShare struct {
	Name  string
	Self  time.Duration
	Share float64
}

// layerShares sums self time by span name over every unit in spans and
// divides by the summed root (unit) durations, largest share first.
func layerShares(spans []span) []layerShare {
	self := selfTimes(spans)
	byName := map[string]int64{}
	var total int64
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
		if s.Parent == 0 {
			total += s.dur()
		}
	}
	out := make([]layerShare, 0, len(byName))
	for name, ns := range byName {
		out = append(out, layerShare{Name: name, Self: time.Duration(ns), Share: ratio(float64(ns), float64(total))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// spanMs returns the durations, in milliseconds, of every span named name.
func spanMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// writeSpans writes spans as one JSON array, creating the directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
