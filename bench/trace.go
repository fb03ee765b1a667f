package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// request share ReqID; Parent is the span that caused this one (0 for a
// root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	ReqID  int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; dump writes them out when the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// do runs fn inside a span and returns its duration. fn receives the
// span's id, to parent the spans it records.
func (t *tracer) do(name string, parent, req int64, fn func(id int64)) time.Duration {
	id := t.nextID.Add(1)
	start := time.Now()
	fn(id)
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, ReqID: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
	return end.Sub(start)
}

// wrap records a root span around a load-generator op.
func (t *tracer) wrap(o op, req int64) op {
	run := o.run
	o.run = func(ctx context.Context, reqID int64) (serverMS float64, err error) {
		t.do("client."+o.class, 0, req, func(int64) { serverMS, err = run(ctx, reqID) })
		return serverMS, err
	}
	return o
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// stats aggregates spans by name. A span's self time is its duration
// minus the part of its interval its children cover.
func (t *tracer) stats() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := make(map[string]*spanStat)
	for _, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(dur-covered(s, kids[s.ID])) / 1e6
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}

// mean returns the mean duration in nanoseconds of the spans named name.
func (t *tracer) mean(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End - s.Start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// durations returns the durations in milliseconds of the spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// dump writes the per-name summary (self time included) and then every
// span, one JSON object per line.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, st := range t.stats() {
		if err := enc.Encode(struct {
			Summary spanStat `json:"summary"`
		}{st}); err != nil {
			f.Close()
			return err
		}
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
