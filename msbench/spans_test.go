package main

import (
	"testing"
	"time"
)

func TestSelfTimesOfNestedSpans(t *testing.T) {
	ms := time.Millisecond
	r := newRecorder(time.Now())
	root := r.add("op", 1, -1, 0, 100*ms)
	parse := r.add("parse", 1, root, 0, 10*ms)
	exec := r.add("exec", 1, root, 10*ms, 90*ms)
	// Two children of exec that overlap for 10ms count once.
	r.add("scan", 1, exec, 20*ms, 50*ms)
	r.add("scan", 1, exec, 40*ms, 60*ms)
	// A grandchild inside the first scan.
	r.add("deform", 1, exec+1, 25*ms, 30*ms)
	// A child reaching past its parent counts only inside it.
	r.add("tail", 1, parse, 5*ms, 15*ms)

	got := selfTimes(r.spans)
	want := map[string]time.Duration{
		"op":     100*ms - 10*ms - 80*ms, // gaps between parse and exec: none, 90..100
		"parse":  10*ms - 5*ms,
		"exec":   80*ms - 40*ms, // children cover 20..60
		"scan":   (30*ms - 5*ms) + 20*ms,
		"deform": 5 * ms,
		"tail":   10 * ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

func TestSelfTimesSumToRootWhenChildrenNest(t *testing.T) {
	ms := time.Millisecond
	r := newRecorder(time.Now())
	root := r.add("op", 1, -1, 0, 50*ms)
	a := r.add("a", 1, root, 5*ms, 30*ms)
	r.add("b", 1, a, 6*ms, 20*ms)
	r.add("c", 1, root, 30*ms, 45*ms)
	var sum time.Duration
	for _, d := range selfTimes(r.spans) {
		sum += d
	}
	if sum != 50*ms {
		t.Errorf("self times sum to %v, want the root's 50ms", sum)
	}
}

func TestOperatorSpansFromOutline(t *testing.T) {
	outline := `Sort [{0 false}] (actual rows=25 loops=1 time=62.000ms)
  HashAgg groups=1 aggs=[sum(l_extendedprice)] [EVA] (actual rows=25 loops=1 time=60.000ms)
    HashJoin inner keys=[17]/[0] [EVJ] (actual rows=11653 loops=1 time=50.000ms)
      Rebatch (actual rows=11653 loops=1 time=4.000ms)
        BatchSeqScan lineitem (16 cols) batch=1024 [GCL] (actual rows=11653 batches=166 rows/batch=70.2 loops=1 time=3.000ms)
      Rebatch (actual rows=3000 loops=1 time=1.000ms)
        BatchSeqScan orders (9 cols) batch=1024 [GCL] (actual rows=3000 batches=37 rows/batch=81.1 loops=1 time=0.500ms)
`
	ms := time.Millisecond
	r := newRecorder(time.Now())
	exec := r.add("DB.ExplainAnalyzeQuery", 1, -1, 0, 70*ms)
	if err := addOperatorSpans(r, 1, exec, outline); err != nil {
		t.Fatal(err)
	}
	got := selfTimes(r.spans)
	want := map[string]time.Duration{
		"DB.ExplainAnalyzeQuery": 8 * ms,
		"exec.Sort":              2 * ms,
		"exec.HashAgg":           10 * ms,
		"exec.HashJoin":          45 * ms,
		"exec.Rebatch":           1500 * time.Microsecond,
		"exec.BatchSeqScan":      3500 * time.Microsecond,
	}
	for name, w := range want {
		if d := got[name] - w; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
	if err := addOperatorSpans(r, 1, exec, "Sort (actual rows=1 loops=1 time=abcms)\n"); err == nil {
		t.Errorf("unparsable time: want an error")
	}
}
