package main

import "sort"

// tailBeyond is how many samples must lie above the reported tail
// latency: the tail is the highest percentile that still has this many
// samples beyond it, so it never rests on a handful of outliers.
const tailBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail is the tail-latency rule: the highest percentile with at least
// tailBeyond samples beyond it.
type tail struct {
	// Value is the sample at that percentile.
	Value float64
	// Percentile is its rank as a percentage of the sample count.
	Percentile float64
	// Beyond is how many samples lie above it (tailBeyond, or 0 when
	// there are too few samples and Value falls back to the maximum).
	Beyond int
	// Samples is the sample count.
	Samples int
}

// tailLatency applies the tail rule to xs. With fewer than
// tailBeyond+1 samples no percentile qualifies; the maximum is reported
// with Beyond = 0 so the shortfall is visible.
func tailLatency(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return tail{Value: s[n-1], Percentile: 100, Samples: n}
	}
	k := n - tailBeyond // 1-based rank of the tail sample
	return tail{Value: s[k-1], Percentile: 100 * float64(k) / float64(n), Beyond: tailBeyond, Samples: n}
}

// failedFrac is failed ops over attempted ops. Every op the measured
// window started counts as attempted — ones that errored, were refused
// or returned a wrong answer too — and the discarded warm-up op does
// not.
func failedFrac(failed, attempted int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
