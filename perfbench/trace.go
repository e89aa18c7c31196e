package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Times are microseconds since the tracer started.
type span struct {
	Run    string  `json:"run"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
}

// tracer keeps the spans of one workload run in memory. A nil tracer
// records nothing, so the untraced run executes the same code with no
// recording cost beyond a nil check. Spans may start and finish on
// several goroutines at once (fleet shards).
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	now := t.now()
	// End stays before Start until finish: a span a panic left open is
	// closed at its start when the spans are written.
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, Start: now, End: now - 1})
	return id
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
}

// timed runs fn inside a span and returns its duration in seconds.
func (t *tracer) timed(parent int, name string, fn func(id int)) float64 {
	id := t.start(parent, name)
	t0 := time.Now()
	fn(id)
	d := time.Since(t0).Seconds()
	t.finish(id)
	return d
}

// selfTimes fills every span's Self: its duration minus the part of
// its interval covered by the union of its children's intervals
// (children may overlap when they ran on several workers).
func selfTimes(spans []span) {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
}

// covered returns the length of [lo, hi] covered by the union of the
// intervals of ks.
func covered(lo, hi float64, ks []span) float64 {
	sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
	total, reach := 0.0, lo
	for _, k := range ks {
		a, b := k.Start, k.End
		if a < reach {
			a = reach
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			reach = b
		}
	}
	return total
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	Name    string
	Count   int
	TotalUS float64
	SelfUS  float64
}

func summarize(spans []span) []spanSummary {
	by := map[string]*spanSummary{}
	var order []string
	for _, s := range spans {
		x, ok := by[s.Name]
		if !ok {
			x = &spanSummary{Name: s.Name}
			by[s.Name] = x
			order = append(order, s.Name)
		}
		x.Count++
		x.TotalUS += s.End - s.Start
		x.SelfUS += s.Self
	}
	out := make([]spanSummary, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SelfUS > out[j].SelfUS })
	return out
}

// write computes self times and writes every span to path as JSON.
func (t *tracer) write(path string) ([]span, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for i := range spans {
		spans[i].End = max(spans[i].End, spans[i].Start)
	}
	selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return spans, err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(map[string]any{"run": t.run, "spans": spans}); err != nil {
		f.Close()
		return spans, err
	}
	return spans, f.Close()
}
