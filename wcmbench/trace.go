package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"
)

// span is one call into a layer's public function, recorded by the
// benchmark around the call. Spans inside the program are not recorded:
// a layer the library calls internally shows up inside its caller's span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Die    string `json:"die"`
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	// Allocs counts heap objects allocated between start and end
	// (runtime.MemStats.Mallocs delta), children included.
	Allocs uint64 `json:"allocs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name up to its first dot ("wcm" for "wcm.run").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans and per-pass counters in memory; they are written
// out once, when the run ends. A nil *tracer records nothing, so the same
// workload code runs traced and untraced.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int // stack of open span IDs
	die    string
	pass   int
	counts []map[string]float64 // indexed by pass
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// startPass opens a new pass; spans and counts that follow belong to it.
func (t *tracer) startPass() {
	t.pass = len(t.counts)
	t.counts = append(t.counts, map[string]float64{})
}

func (t *tracer) setDie(name string) {
	if t != nil {
		t.die = name
	}
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	if t == nil {
		return f()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Die: t.die, Pass: t.pass})
	t.open = append(t.open, id)
	allocs := ms.Mallocs
	t.spans[id].Start = time.Since(t.t0).Nanoseconds()
	err := f()
	end := time.Since(t.t0).Nanoseconds()
	runtime.ReadMemStats(&ms)
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = end
	t.spans[id].Allocs = ms.Mallocs - allocs
	return err
}

// add accumulates a counter of the current pass.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[t.pass][name] += v
	}
}

// passMetrics folds one pass's spans into per-layer figures: "<span>_s" is
// the span name's summed self time (its duration minus the time its child
// spans cover), "<layer>.allocs" the layer's summed self allocations, and
// every counter added during the pass.
func (t *tracer) passMetrics(pass int) map[string]float64 {
	childDur := map[int]time.Duration{}
	childAllocs := map[int]uint64{}
	for _, s := range t.spans {
		if s.Pass == pass && s.Parent >= 0 {
			childDur[s.Parent] += s.dur()
			childAllocs[s.Parent] += s.Allocs
		}
	}
	m := map[string]float64{}
	for _, s := range t.spans {
		if s.Pass != pass {
			continue
		}
		m[s.Name+"_s"] += (s.dur() - childDur[s.ID]).Seconds()
		m[s.layer()+".allocs"] += float64(s.Allocs - childAllocs[s.ID])
	}
	for k, v := range t.counts[pass] {
		m[k] += v
	}
	return m
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
