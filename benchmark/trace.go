package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed interval at a boundary the benchmark crosses. Spans of
// one statement share Op, the id of their root span. Start and End are
// nanoseconds since the tracer was created.
type Span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Op       int64  `json:"op"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// CounterSample is the engine's exported counters read at a span boundary,
// so that ratios are taken over exactly the interval the spans cover.
type CounterSample struct {
	At     int64            `json:"at_ns"`
	Label  string           `json:"label"`
	Values map[string]int64 `json:"values"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, which is the untraced run.
type Tracer struct {
	workload string
	t0       time.Time

	mu       sync.Mutex
	spans    []Span
	counters []CounterSample
}

func newTracer(workload string) *Tracer {
	return &Tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *Tracer) begin(parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	op := id
	if parent != 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Workload: t.workload, Start: now})
	return id
}

func (t *Tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// interval records a child span whose duration was measured elsewhere (the
// engine reports its compile time as a number, not as two instants); it is
// placed at the start of its parent.
func (t *Tracer) interval(parent int64, name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, Span{ID: int64(len(t.spans) + 1), Parent: parent, Op: p.Op, Name: name, Workload: t.workload, Start: p.Start, End: p.Start + d.Nanoseconds()})
}

// span times fn as a child of parent.
func (t *Tracer) span(parent int64, name string, fn func()) {
	id := t.begin(parent, name)
	fn()
	t.end(id)
}

func (t *Tracer) sample(label string, values map[string]int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.counters = append(t.counters, CounterSample{At: now, Label: label, Values: values})
	t.mu.Unlock()
}

// sampleValues lists one value over the tracer's counter samples of a label.
func (t *Tracer) sampleValues(label, key string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.counters {
		if s.Label == label {
			out = append(out, float64(s.Values[key]))
		}
	}
	return out
}

// durations returns, per span name, every span's duration and self time
// (duration minus the part its children cover) in nanoseconds.
func (t *Tracer) durations() (total, self map[string][]float64) {
	total, self = map[string][]float64{}, map[string][]float64{}
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		total[s.Name] = append(total[s.Name], float64(d))
		self[s.Name] = append(self[s.Name], float64(max(0, d-covered[s.ID])))
	}
	return
}

// write stores the spans and counter samples as one JSON document.
func (t *Tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string          `json:"workload"`
		Spans    []Span          `json:"spans"`
		Counters []CounterSample `json:"counters"`
	}{t.workload, t.spans, t.counters})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
