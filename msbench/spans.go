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

// span is one timed call the benchmark made into a layer of the engine.
// Start and End are offsets from the recorder's epoch; Parent is the
// index of the enclosing span in the same recorder, or -1 for an op's
// root span. Spans of one logical operation share Op.
type span struct {
	Name   string           `json:"name"`
	Op     int64            `json:"op"`
	Parent int              `json:"parent"`
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// recorder keeps one client goroutine's spans in memory. It is not
// synchronized: each closed-loop client owns one, and they are merged
// only after the clients have stopped.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, op int64, parent int) int {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) { r.spans[i].End = time.Since(r.epoch) }

// add records a span whose interval is already known.
func (r *recorder) add(name string, op int64, parent int, start, end time.Duration) int {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	return len(r.spans) - 1
}

// selfTimes returns, per span name, the summed self time of the spans:
// each span's duration minus the part of its interval that its children
// cover (overlapping children are counted once, and any part of a child
// outside its parent is ignored).
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += s.End - s.Start - covered(spans, kids[i], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of the child intervals,
// clipped to [lo, hi).
func covered(spans []span, children []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := spans[c].Start, spans[c].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes every recorder's spans as JSON lines to path,
// creating its directory. Each line carries the client index, so parent
// indexes resolve within that client's spans.
func writeSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for c, r := range recs {
		for _, s := range r.spans {
			line := struct {
				Client int `json:"client"`
				span
			}{c, s}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
