package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are recorded
// from the benchmark's own files only, around the call; what happens inside
// the program is a later issue's to instrument.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // -1 for a root
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	StartUs  float64 `json:"start_us"` // since the tracer was made
	EndUs    float64 `json:"end_us"`
	SelfUs   float64 `json:"self_us"` // duration minus the children's
}

// tracer keeps spans in memory until the run ends. The benchmark drives the
// simulator from one goroutine, so the open-span stack needs no lock. A nil
// tracer records nothing: end-to-end metrics are measured with tracing off.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of open span ids
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns the function
// that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Workload: t.workload, Name: name,
		StartUs: float64(time.Since(t.t0)) / float64(time.Microsecond),
	})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].EndUs = float64(time.Since(t.t0)) / float64(time.Microsecond)
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes fills SelfUs: a span's duration minus the part its direct
// children cover. Children of one parent never overlap here (one goroutine),
// so covered time is the sum of their durations.
func selfTimes(spans []span) {
	for i := range spans {
		spans[i].SelfUs = spans[i].EndUs - spans[i].StartUs
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			spans[s.Parent].SelfUs -= s.EndUs - s.StartUs
		}
	}
}

// selfByName sums self time per span name, largest first.
func selfByName(spans []span) []nameSelf {
	sum := map[string]float64{}
	for _, s := range spans {
		sum[s.Name] += s.SelfUs
	}
	out := make([]nameSelf, 0, len(sum))
	for n, us := range sum {
		out = append(out, nameSelf{n, us})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfUs != out[j].SelfUs {
			return out[i].SelfUs > out[j].SelfUs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

type nameSelf struct {
	Name   string
	SelfUs float64
}

// write computes self times and writes the spans as JSON.
func (t *tracer) write(path string) error {
	selfTimes(t.spans)
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
