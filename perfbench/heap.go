package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// heapSampleEvery is the in-use heap sampling period. The samples come
// from runtime/metrics, which reads without stopping the world.
const heapSampleEvery = 5 * time.Millisecond

// The in-use heap is the runtime's HeapInuse: object memory, live or
// not yet swept, plus the free space inside the spans that hold it.
var heapInuseMetrics = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

// readMetrics sums the named uint64 runtime metrics.
func readMetrics(names ...string) uint64 {
	sm := make([]metrics.Sample, len(names))
	for i, n := range names {
		sm[i].Name = n
	}
	metrics.Read(sm)
	var sum uint64
	for _, s := range sm {
		sum += s.Value.Uint64()
	}
	return sum
}

// heapSampler samples the in-use heap while it runs.
type heapSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	samples []float64
}

// startHeapSampler starts sampling; call finish to stop it.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v := float64(readMetrics(heapInuseMetrics...))
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.mu.Unlock()
}

// finish stops the sampler, waits for it to exit and returns the peak:
// the 99th percentile of the samples, the level the heap stays under for
// all but 1% of the run. The single highest sample hangs on when the
// collector happens to run, or on two serve jobs peaking at the same
// moment, and moves by a fifth from run to run.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	h.sample()
	s := sortedCopy(h.samples)
	return uint64(s[len(s)*99/100])
}

// totalAlloc returns the cumulative heap bytes allocated so far (the
// runtime's TotalAlloc).
func totalAlloc() uint64 { return readMetrics("/gc/heap/allocs:bytes") }
