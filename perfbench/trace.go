package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one request share req; parent is the
// index of the enclosing span (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Req    int64         `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per call site. Each
// tracer is used by one goroutine; concurrent clients get their own.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(req int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.t0)
}

// merge appends other's spans, re-basing parent indices.
func (t *tracer) merge(other *tracer) {
	if t == nil || other == nil {
		return
	}
	base := len(t.spans)
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns, per span name, the summed self time (span duration
// minus the part of its interval covered by its direct children) and the
// number of spans of that name.
func (t *tracer) selfTimes() map[string]selfTime {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]selfTime)
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		st := out[s.Name]
		st.Self += s.End - s.Start - covered
		st.Total += s.End - s.Start
		st.Count++
		out[s.Name] = st
	}
	return out
}

type selfTime struct {
	Self, Total time.Duration
	Count       int
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
