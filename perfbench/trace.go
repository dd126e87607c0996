package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's exported function.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int64  `json:"op"`     // the operation (wave, epoch, suite) the span belongs to
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site. Spans are
// recorded from one goroutine at a time, except where a caller says
// otherwise and serializes them itself.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

// end closes the span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// add records an already timed span (for calls timed on another
// goroutine and handed back).
func (t *tracer) add(name string, parent int32, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)),
		End: int64(end.Sub(t.t0)), Parent: parent, Op: op})
}

// layerTime is the aggregate of every span of one name.
type layerTime struct {
	count int
	total time.Duration // sum of span durations
	self  time.Duration // total minus the time child spans cover
}

// perName aggregates the spans by name. A span's self time is its
// duration minus the union of its children's intervals, so overlapping
// children (concurrent clients) are not subtracted twice.
func (t *tracer) perName() map[string]layerTime {
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		lt := out[s.Name]
		d := s.End - s.Start
		lt.count++
		lt.total += time.Duration(d)
		lt.self += time.Duration(d - covered(children[int32(i)]))
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			sum += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return sum + hi - lo
}

// write stores the spans as JSON lines, each tagged with the run id.
func (t *tracer) write(path, run string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Run string `json:"run"`
		span
	}
	for _, s := range t.spans {
		if err := enc.Encode(line{Run: run, span: s}); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// spanCostNs measures what recording one span costs, so the tracing
// overhead can be read next to the span count.
func spanCostNs() float64 {
	const n = 1 << 16
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("probe", -1, int64(i)))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
