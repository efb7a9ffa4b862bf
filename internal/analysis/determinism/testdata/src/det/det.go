// Package det is the determinism fixture: order-dependent map-range
// effects and wall-clock/randomness outside the experiments harness are
// flagged; the collect-then-sort idiom, keyed stores, integer
// accumulation, and seeded generators stay clean.
package det

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fourindex/internal/trace"
)

// wallClockRead reads the process clock in simulated-time code.
func wallClockRead() int64 {
	return time.Now().UnixNano() // want `wall-clock time\.Now outside the experiments harness`
}

// wallClockSleep stalls on real time.
func wallClockSleep() {
	time.Sleep(time.Millisecond) // want `wall-clock time\.Sleep outside the experiments harness`
}

// processSeededRand draws from the process-seeded global generator.
func processSeededRand() int {
	return rand.Int() // want `process-seeded rand\.Int outside the experiments harness`
}

// cleanSeededRand builds an explicitly seeded generator: deterministic.
func cleanSeededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// unsortedAppend collects map keys and uses them unsorted.
func unsortedAppend(m map[int]float64) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // want `append to "keys" inside a map range without sorting it afterwards`
	}
	return keys
}

// cleanCollectThenSort is the canonical deterministic iteration idiom.
func cleanCollectThenSort(m map[int]float64) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// floatAccumulation sums floats in map order: rounding is order-dependent.
func floatAccumulation(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `floating-point accumulation into "sum" inside a map range`
	}
	return sum
}

// stringConcat builds a string in map order.
func stringConcat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want `string concatenation into "s" inside a map range`
	}
	return s
}

// cleanIntAccumulation is commutative: order cannot change the result.
func cleanIntAccumulation(m map[int]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

// lastWriterWins keeps whichever key the iterator happened to visit last.
func lastWriterWins(m map[int]string) int {
	var picked int
	for k := range m {
		picked = k // want `assignment of a map range's key or value to "picked"`
	}
	return picked
}

// returnInRange returns the first matching key the iterator visits.
func returnInRange(m map[int]string, want string) int {
	for k, v := range m {
		if v == want {
			return k // want `returning the key or value of a map range`
		}
	}
	return -1
}

// cleanExistenceCheck returns a constant: any visit order gives the same
// answer.
func cleanExistenceCheck(m map[int]string, want string) bool {
	for _, v := range m {
		if v == want {
			return true
		}
	}
	return false
}

// emissionInRange prints in map order.
func emissionInRange(m map[int]float64) {
	for k, v := range m {
		fmt.Printf("%d=%v\n", k, v) // want `emission call inside a map range`
	}
}

// traceInRange emits trace events in map order.
func traceInRange(t *trace.Tracer, m map[int]float64) {
	for k := range m {
		t.Note(fmt.Sprintf("tile %d", k)) // want `emission call inside a map range`
	}
}

// sendInRange forwards elements in map order.
func sendInRange(m map[int]float64, out chan<- int) {
	for k := range m {
		out <- k // want `channel send inside a map range`
	}
}

// cleanKeyedStore re-keys into another map: order-independent.
func cleanKeyedStore(m map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(m))
	for k, v := range m {
		out[k] = 2 * v
	}
	return out
}

// fixedIndexStore funnels values into one slot.
func fixedIndexStore(m map[int]float64, out []float64) {
	for _, v := range m {
		out[0] = v // want `store of a map range's key or value at a fixed index`
	}
}

// cleanSliceRange is not a map: nothing to check.
func cleanSliceRange(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum
}
