package blas

import (
	"runtime"
	"sync/atomic"
)

// The GEMM worker pool bounds the total number of extra goroutines
// Dgemm may have in flight at any instant, process-wide. Without it
// every concurrent Dgemm call fanned out up to GOMAXPROCS goroutines of
// its own, so J concurrent transform jobs oversubscribed the machine
// J-fold; a job server sizes the pool once at startup (SetWorkers) and
// every concurrent Run then shares the one budget.
//
// The calling goroutine always computes, so Dgemm never blocks on the
// pool: it try-acquires extra slots and runs with whatever it got (down
// to fully serial). Row-split boundaries only change which goroutine
// computes a row — each C row's accumulation order is fixed — so
// results are bitwise identical at any worker count.

// workerPool is a counting semaphore of extra-worker slots. It is
// immutable after construction; SetWorkers swaps in a fresh pool and
// in-flight acquisitions drain back to the pool they came from.
type workerPool struct {
	slots chan struct{}
}

func newWorkerPool(workers int) *workerPool {
	if workers < 1 {
		workers = 1
	}
	p := &workerPool{slots: make(chan struct{}, workers-1)}
	for i := 0; i < workers-1; i++ {
		p.slots <- struct{}{}
	}
	return p
}

// tryAcquire claims up to want extra-worker slots without blocking and
// returns how many it got.
func (p *workerPool) tryAcquire(want int) int {
	got := 0
	for got < want {
		select {
		case <-p.slots:
			got++
		default:
			return got
		}
	}
	return got
}

// release returns n slots to the pool.
func (p *workerPool) release(n int) {
	for i := 0; i < n; i++ {
		p.slots <- struct{}{}
	}
}

// gemmPool holds the process-wide pool, lazily sized to runtime.NumCPU
// (not GOMAXPROCS, which benchmarks mutate mid-process) on first use.
var gemmPool atomic.Pointer[workerPool]

func getPool() *workerPool {
	for {
		if p := gemmPool.Load(); p != nil {
			return p
		}
		gemmPool.CompareAndSwap(nil, newWorkerPool(runtime.NumCPU()))
	}
}

// SetWorkers sizes the process-wide GEMM worker pool: at most workers
// goroutines (including each caller's own) compute GEMMs concurrently
// across ALL Dgemm calls in the process. Values below 1 are treated as
// 1 (fully serial). Call once at process startup — a long-running
// server sets its compute budget here; library use without a call gets
// a runtime.NumCPU-sized default. Safe for concurrent use; Dgemm calls
// already holding slots of the previous pool finish undisturbed.
func SetWorkers(workers int) {
	gemmPool.Store(newWorkerPool(workers))
}

// Workers reports the pool's size (the maximum concurrent GEMM
// goroutines, including callers' own).
func Workers() int {
	return cap(getPool().slots) + 1
}
