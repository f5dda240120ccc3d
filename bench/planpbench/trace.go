// The span recorder of the traced pass. Spans are taken from outside,
// around the calls the benchmark makes into each layer; nothing in the
// program under test is instrumented. A span names its parent by the
// parent's span name within the same op, which is enough to rebuild the
// tree (no parent name occurs twice in one op) and works when the child
// is recorded on another goroutine than the parent (the rtnet gateway,
// fleet's fan-out workers).
package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// keepOps is how many ops per round keep their individual spans; the
// rest only feed the per-name aggregates.
const keepOps = 2000

// span is one recorded interval.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg sums every span of one name, kept or not.
type spanAgg struct {
	Count  int64 `json:"count"`
	SumNs  int64 `json:"sum_ns"`
	SelfNs int64 `json:"self_ns"` // SumNs minus what the spans' children cover
}

type openKey struct {
	op   int64
	name string
}

// tracer records spans in memory. A nil *tracer is the untraced pass:
// every method is a no-op, so workloads call it unconditionally.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	open  map[openKey][]interval // child intervals of spans still running
	agg   map[string]*spanAgg
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[openKey][]interval{}, agg: map[string]*spanAgg{}}
}

// now is the trace clock: monotonic nanoseconds since the trace began.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// begin announces a span that will have children, so their intervals
// are collected until finish computes what they cover. It returns the
// start time.
func (t *tracer) begin(name string, op int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.open[openKey{op, name}] = []interval{}
	t.mu.Unlock()
	return t.now()
}

// finish records a span. seq is the caller's running index within the
// round; spans with seq < keepOps are kept individually.
func (t *tracer) finish(name, parent string, op, seq, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	a.Count++
	a.SumNs += end - start
	key := openKey{op, name}
	a.SelfNs += selfTime(interval{start, end}, t.open[key])
	delete(t.open, key)
	if parent != "" {
		pk := openKey{op, parent}
		if kids, ok := t.open[pk]; ok {
			t.open[pk] = append(kids, interval{start, end})
		}
	}
	if seq < keepOps {
		t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: start, End: end})
	}
	t.mu.Unlock()
}

// aggregates returns a copy of the per-name sums.
func (t *tracer) aggregates() map[string]spanAgg {
	out := map[string]spanAgg{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range t.agg {
		out[k] = *v
	}
	return out
}

// share returns name's self time as a share of root's total time.
func share(aggs map[string]spanAgg, name, root string) float64 {
	r := aggs[root]
	if r.SumNs == 0 {
		return 0
	}
	return float64(aggs[name].SelfNs) / float64(r.SumNs)
}

// traceFile is what the traced pass writes at exit.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Host       hostRecord         `json:"host"`
	Aggregates map[string]spanAgg `json:"aggregates"`
	Spans      []span             `json:"spans"`
}

// write stores the trace as JSON at path.
func (t *tracer) write(path, workload string, seed int64, host hostRecord) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Host: host,
		Aggregates: t.aggregates(), Spans: spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
