package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call from the benchmark into a layer.
type span struct {
	Name   string        `json:"name"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer records
// nothing, which is how untraced runs call it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its id.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: time.Since(t.t0), End: -1})
	return id
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = time.Since(t.t0)
	t.mu.Unlock()
}

// writeFile writes the spans to path as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// summarize totals the spans per name. A span's self time is its duration
// minus the part of it that its child spans cover; children may overlap
// (concurrent predicts under Wait), so the covered part is their union.
func summarize(spans []span) []spanSummary {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*spanSummary{}
	var order []string
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		sum, ok := by[s.Name]
		if !ok {
			sum = &spanSummary{Name: s.Name}
			by[s.Name] = sum
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		sum.Count++
		sum.Total += d
		sum.Self += d - covered(s, children[s.ID])
	}
	out := make([]spanSummary, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration = 0, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

func printSpanSummary(w io.Writer, spans []span) {
	fmt.Fprintf(w, "spans: %d recorded\n", len(spans))
	for _, s := range summarize(spans) {
		fmt.Fprintf(w, "  span %-16s count=%-6d total=%.3fms self=%.3fms\n",
			s.Name, s.Count, ms(s.Total), ms(s.Self))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
