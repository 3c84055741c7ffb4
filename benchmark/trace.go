package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans are two levels deep: an op (Parent -1) and the layer calls
// it made. Spans of one op share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for an op
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer is
// the untraced run: every method is a no-op, so the workloads call it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durationsMS returns the duration of every span with the given name.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (children may overlap one another and
// are clipped to the parent).
func selfTimes(spans []span) []int64 {
	type iv struct{ s, e int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, p := range spans {
		out[i] = p.End - p.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].s < ks[b].s })
		covered, edge := int64(0), p.Start
		for _, k := range ks {
			s, e := max(k.s, edge), min(k.e, p.End)
			if e > s {
				covered += e - s
				edge = e
			}
		}
		out[i] -= covered
	}
	return out
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
