package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		need int
	}{{0.5, 20}, {0.95, 200}, {0.99, 1000}} {
		if got := minSamples(tc.q); got != tc.need {
			t.Errorf("minSamples(%v) = %d, want %d", tc.q, got, tc.need)
		}
		xs := make([]float64, tc.need-1)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if _, err := percentile(xs, tc.q); err == nil {
			t.Errorf("p%v of %d samples: want an error", tc.q*100, len(xs))
		}
		xs = append(xs, float64(tc.need))
		v, err := percentile(xs, tc.q)
		if err != nil {
			t.Fatalf("p%v of %d samples: %v", tc.q*100, len(xs), err)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("p%v of 1..%d = %v leaves %d samples beyond it, want %d", tc.q*100, tc.need, v, beyond, minBeyond)
		}
	}
}

func TestPercentileIgnoresOrder(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64((i * 7919) % 1000) // a permutation of 0..999
	}
	v, err := percentile(xs, 0.99)
	if err != nil || v != 989 {
		t.Fatalf("p99 = %v, %v; want 989", v, err)
	}
	if xs[1] != 919 {
		t.Fatalf("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	got, err := geomean([]float64{1, 10, 100})
	if err != nil || math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1,10,100) = %v, %v; want 10", got, err)
	}
	got, err = geomean([]float64{2, 8})
	if err != nil || math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v, %v; want 4", got, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {-1, 4}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v): want an error", bad)
		}
	}
}

func TestWindowMetrics(t *testing.T) {
	w := newWindow()
	for i := 1; i <= 100; i++ {
		w.record("a", time.Millisecond)
		w.record("b", 4*time.Millisecond)
		w.cpu.add("a", time.Millisecond/2)
		w.cpu.add("b", 2*time.Millisecond)
	}
	w.elapsed, w.procCPU = 2*time.Second, 300*time.Millisecond
	m, err := endToEndMetrics(w)
	if err != nil {
		t.Fatal(err)
	}
	f, err := wallFigures("tpch", w)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range f {
		m[k] = v
	}
	want := map[string]float64{
		"cpu_ms_per_op": 1.5, "op_cpu_geomean_ms": 1,
		"ops_s": 100, "p50_ms": 2.5, "tail_ms": 4, "geomean_ms": 2,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if _, err := wallFigures("tpcc", w); err == nil {
		t.Errorf("p99 over 200 samples: want an error")
	}
}
