// Package perf is a metricsdiscipline fixture: the benchmark harness
// (import path ending in /perf) records deterministic accounting only,
// so it gets no wall-clock exemption and every clock read is flagged.
package perf

import "time"

// measure times one benchmark repetition.
func measure(run func()) float64 {
	start := time.Now() // want `wall-clock time\.Now in simulated-time code`
	run()
	return time.Since(start).Seconds() // want `wall-clock time\.Since in simulated-time code`
}

// jitter derives a pseudo-random offset from the clock.
func jitter() int64 {
	return time.Now().UnixNano() % 1000 // want `wall-clock time\.Now in simulated-time code`
}
