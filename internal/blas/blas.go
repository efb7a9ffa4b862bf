// Package blas provides the dense linear-algebra kernels the four-index
// transform schedules are built from: a register-tiled, goroutine-parallel
// double-precision GEMM plus the level-1 kernels (axpy, dot, scal, ger).
// The GEMM is sized for the small, thin tile products the schedules
// issue (8x8x8 to 8x3072x48 at n=48, tile 8): one 4x2 register
// micro-kernel with no packing, no blocking loops and no heap allocation
// per call.
//
// All matrices are row-major with an explicit leading dimension (row
// stride), following the conventions of CBLAS with CblasRowMajor. Only
// the operations the transform needs are implemented; this is a substrate
// for the simulator, not a general BLAS.
package blas

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the m*n*k product above which Dgemm fans out
// across goroutines.
const parallelThreshold = 1 << 21

// Dgemm computes C = alpha*op(A)*op(B) + beta*C where op(X) is X or X^T
// according to transA/transB. Dimensions: op(A) is m x k, op(B) is k x n,
// C is m x n. lda, ldb, ldc are row strides of the stored (untransposed)
// matrices.
func Dgemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("blas: negative dimension m=%d n=%d k=%d", m, n, k))
	}
	if m == 0 || n == 0 {
		return
	}
	checkMatrix("A", a, lda, rows(transA, m, k), cols(transA, m, k))
	checkMatrix("B", b, ldb, rows(transB, k, n), cols(transB, k, n))
	checkMatrix("C", c, ldc, m, n)

	if alpha == 0 || k == 0 {
		scaleRows(beta, 0, m, n, c, ldc)
		return
	}

	// Beta-scaling is folded into the same row split as the kernel so C
	// is swept once per worker, not serially up front and again in the
	// accumulation. Extra workers come from the process-wide pool (see
	// pool.go): concurrent Dgemm callers share one goroutine budget
	// instead of each fanning out GOMAXPROCS of their own, and a caller
	// that finds the pool drained runs serially rather than blocking.
	if int64(m)*int64(n)*int64(k) >= parallelThreshold && m >= 2 {
		want := runtime.GOMAXPROCS(0)
		if want > m {
			want = m
		}
		if want > 1 {
			pool := getPool()
			if extra := pool.tryAcquire(want - 1); extra > 0 {
				parallelGemm(extra+1, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
				pool.release(extra)
				return
			}
		}
	}
	scaleRows(beta, 0, m, n, c, ldc)
	gemmRows(transA, transB, 0, m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// scaleRows applies C[i0:i1, :n] *= beta (beta == 0 stores zeros, so
// uninitialised input never propagates NaNs).
func scaleRows(beta float64, i0, i1, n int, c []float64, ldc int) {
	if beta == 1 {
		return
	}
	for i := i0; i < i1; i++ {
		row := c[i*ldc : i*ldc+n]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}

func rows(trans bool, r, c int) int {
	if trans {
		return c
	}
	return r
}

func cols(trans bool, r, c int) int {
	if trans {
		return r
	}
	return c
}

func checkMatrix(name string, x []float64, ld, r, c int) {
	if r == 0 || c == 0 {
		return
	}
	if ld < c {
		panic(fmt.Sprintf("blas: %s leading dimension %d < %d", name, ld, c))
	}
	if len(x) < (r-1)*ld+c {
		panic(fmt.Sprintf("blas: %s slice too short: len %d, need %d", name, len(x), (r-1)*ld+c))
	}
}

// parallelGemm splits the row range of C across workers; each worker
// beta-scales its own rows before accumulating, so the scaling sweep
// parallelises with the kernel instead of serialising before it.
func parallelGemm(workers int, transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			scaleRows(beta, lo, hi, n, c, ldc)
			gemmRows(transA, transB, lo, hi, n, k, alpha, a, lda, b, ldb, c, ldc)
		}(lo, hi)
	}
	wg.Wait()
}

// gemmRows accumulates alpha*op(A)*op(B) into C for C-rows [i0, i1).
//
// Both operands are read through (row stride, column stride) pairs, so
// one kernel serves all four transpose combinations: element (r, q) of
// op(X) lives at x[r*rs+q*cs]. C is swept in 4x2 tiles held in locals
// (gemmMicro); the rows and columns left over at the edges go through
// the scalar gemmEdge.
//
// Every C element sees the same sequence of operations on every path:
// starting from its value in C, kk ascends from 0 to k-1 adding
// (alpha*a(i,kk))*b(kk,j), skipping the term exactly when alpha*a(i,kk)
// is zero. Tile and edge boundaries, the row split across workers and
// the caller's shape therefore never change a bit of the result.
func gemmRows(transA, transB bool, i0, i1, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	ars, acs := lda, 1
	if transA {
		ars, acs = 1, lda
	}
	brs, bcs := ldb, 1
	if transB {
		brs, bcs = 1, ldb
	}
	iEnd := i0 + (i1-i0)&^3
	jEnd := n &^ 1
	for i := i0; i < iEnd; i += 4 {
		for j := 0; j < jEnd; j += 2 {
			gemmMicro(k, alpha, a[i*ars:], ars, acs, b[j*bcs:], brs, bcs, c[i*ldc+j:], ldc)
		}
	}
	gemmEdge(i0, iEnd, jEnd, n, k, alpha, a, ars, acs, b, brs, bcs, c, ldc)
	gemmEdge(iEnd, i1, 0, n, k, alpha, a, ars, acs, b, brs, bcs, c, ldc)
}

// gemmMicro accumulates one 4x2 tile of C: c[r*ldc+q] += sum over kk of
// (alpha*a[r*ars+kk*acs]) * b[kk*brs+q*bcs] for r in 0..3, q in 0..1.
// The tile's eight accumulators, the two B values and the scaled A value
// of one k step fit the 15 float registers the Go compiler allocates on
// amd64, so nothing spills inside the k loop. A 4x4 tile needs 16
// accumulators alone; it spilled and measured 20-30% slower on the
// transform's shapes.
func gemmMicro(k int, alpha float64, a []float64, ars, acs int, b []float64, brs, bcs int, c []float64, ldc int) {
	c0 := c[0*ldc : 0*ldc+2 : 0*ldc+2]
	c1 := c[1*ldc : 1*ldc+2 : 1*ldc+2]
	c2 := c[2*ldc : 2*ldc+2 : 2*ldc+2]
	c3 := c[3*ldc : 3*ldc+2 : 3*ldc+2]
	c00, c01 := c0[0], c0[1]
	c10, c11 := c1[0], c1[1]
	c20, c21 := c2[0], c2[1]
	c30, c31 := c3[0], c3[1]
	pa, pb := 0, 0
	for kk := 0; kk < k; kk++ {
		b0, b1 := b[pb], b[pb+bcs]
		if av := alpha * a[pa]; av != 0 {
			c00 += av * b0
			c01 += av * b1
		}
		if av := alpha * a[pa+ars]; av != 0 {
			c10 += av * b0
			c11 += av * b1
		}
		if av := alpha * a[pa+2*ars]; av != 0 {
			c20 += av * b0
			c21 += av * b1
		}
		if av := alpha * a[pa+3*ars]; av != 0 {
			c30 += av * b0
			c31 += av * b1
		}
		pa += acs
		pb += brs
	}
	c0[0], c0[1] = c00, c01
	c1[0], c1[1] = c10, c11
	c2[0], c2[1] = c20, c21
	c3[0], c3[1] = c30, c31
}

// gemmEdge is the scalar kernel for the C block [i0, i1) x [j0, j1)
// that the micro-tiles leave over. It runs in axpy form, one C row
// segment per nonzero alpha*a(i,kk), so a thin edge (a single row of a
// 1xn product, say) still streams whole rows of B. Each element sees
// the same sequence of operations as in gemmMicro.
func gemmEdge(i0, i1, j0, j1, k int, alpha float64, a []float64, ars, acs int, b []float64, brs, bcs int, c []float64, ldc int) {
	if j0 >= j1 {
		return
	}
	for i := i0; i < i1; i++ {
		crow := c[i*ldc+j0 : i*ldc+j1]
		for kk := 0; kk < k; kk++ {
			av := alpha * a[i*ars+kk*acs]
			if av == 0 {
				continue
			}
			pb := kk*brs + j0*bcs
			for j := range crow {
				crow[j] += av * b[pb]
				pb += bcs
			}
		}
	}
}

// GemmFlops returns the floating-point operation count of a GEMM with the
// given dimensions (2*m*n*k, counting multiply and add separately).
func GemmFlops(m, n, k int) int64 {
	return 2 * int64(m) * int64(n) * int64(k)
}

// Daxpy computes y += alpha * x elementwise.
func Daxpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Daxpy length mismatch %d vs %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Ddot returns the inner product of x and y.
func Ddot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Ddot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Dscal scales x by alpha in place.
func Dscal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dger performs the rank-1 update A += alpha * x * y^T where A is
// len(x) x len(y) row-major with leading dimension lda.
func Dger(alpha float64, x, y, a []float64, lda int) {
	checkMatrix("A", a, lda, len(x), len(y))
	for i, xv := range x {
		s := alpha * xv
		if s == 0 {
			continue
		}
		row := a[i*lda : i*lda+len(y)]
		for j, yv := range y {
			row[j] += s * yv
		}
	}
}

// Idamax returns the index of the element of x with the largest absolute
// value, or -1 for an empty slice.
func Idamax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := -1.0, -1
	for i, v := range x {
		if v < 0 {
			v = -v
		}
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
