// Package perf stands in for the benchmark harness: its import path
// ends in /perf, but its report is deterministic, so wall-clock
// readings and process-seeded randomness are flagged here like
// anywhere else, and so is order-dependent map iteration.
package perf

import (
	"math/rand"
	"time"
)

// measure times a real operation; wall time has no place in the report.
func measure(op func()) float64 {
	start := time.Now() // want `wall-clock time\.Now outside the experiments harness`
	op()
	return time.Since(start).Seconds() // want `wall-clock time\.Since outside the experiments harness`
}

// jitter draws process-seeded randomness.
func jitter() float64 {
	return rand.Float64() // want `process-seeded rand\.Float64 outside the experiments harness`
}

// keysUnsorted is order-dependent: the keys leave in map order.
func keysUnsorted(m map[int]float64) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // want `append to "keys" inside a map range without sorting it afterwards`
	}
	return keys
}
