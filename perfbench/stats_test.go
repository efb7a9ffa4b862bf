package main

import (
	"math"
	"testing"
)

func TestTailLatencyRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{100, 90, 90, 10},
		{25, 15, 60, 10},
		{11, 1, 100.0 / 11, 10}, // the smallest count with a qualifying percentile
		{10, 10, 100, 0},        // too few: the maximum, flagged by Beyond = 0
		{1, 1, 100, 0},
	} {
		got := tailLatency(seq(tc.n))
		if got.Value != tc.value || math.Abs(got.Percentile-tc.pct) > 1e-12 || got.Beyond != tc.beyond || got.Samples != tc.n {
			t.Errorf("n=%d: got %+v, want value %v at p%v with %d beyond", tc.n, got, tc.value, tc.pct, tc.beyond)
		}
		if tc.beyond > 0 {
			above := 0
			for _, x := range seq(tc.n) {
				if x > got.Value {
					above++
				}
			}
			if above != tailBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, above, tailBeyond)
			}
		}
	}
	if got := tailLatency(nil); got != (tail{}) {
		t.Errorf("no samples: got %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd count: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
}

// TestFailedFracBase pins the base of the failure share: every op the
// measured window attempted, failed ones included, and only the ops
// that succeeded count toward throughput.
func TestFailedFracBase(t *testing.T) {
	if got := failedFrac(2, 10); got != 0.2 {
		t.Errorf("failedFrac(2, 10) = %v, want 0.2", got)
	}
	if got := failedFrac(0, 0); got != 1 {
		t.Errorf("nothing attempted must read as all failed, got %v", got)
	}
	m := &measured{
		setups:    []float64{1, 2, 3},
		lat:       []float64{1, 1, 1, 1},
		attempted: 4,
		failed:    1,
		window:    4,
		alloc:     8e6,
		peakHeap:  5e6,
	}
	ms := endToEnd(m, &report{})
	want := map[string]float64{
		"setup_s":              2,
		"latency_p50_s":        1,
		"latency_tail_s":       1,
		"throughput_ops_per_s": 0.75,
		"alloc_mb_per_op":      2,
		"peak_heap_mb":         5,
	}
	if len(ms) != len(want) {
		t.Fatalf("got %d metrics, want %d", len(ms), len(want))
	}
	for k, v := range want {
		if ms[k].Value != v {
			t.Errorf("%s = %v, want %v", k, ms[k].Value, v)
		}
	}
}
