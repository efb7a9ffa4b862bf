package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// ikjGemm is the oracle for the micro-kernel: the axpy-form i-k-j kernel
// Dgemm used before it, kept here and nowhere else. C is scaled by beta
// first; then each C row accumulates (alpha*a(i,kk)) * b(kk, :) for kk
// ascending, skipping the row update exactly when alpha*a(i,kk) == 0.
// The old kernel's cache blocks split only the i, j and k ranges and
// kept kk ascending per element, so they never changed a bit and are
// left out.
func ikjGemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	scaleRows(beta, 0, m, n, c, ldc)
	if alpha == 0 || k == 0 {
		return
	}
	for i := 0; i < m; i++ {
		crow := c[i*ldc : i*ldc+n]
		for kk := 0; kk < k; kk++ {
			var av float64
			if transA {
				av = a[kk*lda+i]
			} else {
				av = a[i*lda+kk]
			}
			av *= alpha
			if av == 0 {
				continue
			}
			for j := range crow {
				var bv float64
				if transB {
					bv = b[j*ldb+kk]
				} else {
					bv = b[kk*ldb+j]
				}
				crow[j] += av * bv
			}
		}
	}
}

// firstBitDiff returns the first index where x and y differ in their
// IEEE-754 bits (so -0 != +0), or -1. Any NaN matches any NaN: neither
// IEEE 754 nor Go fixes which operand's payload NaN+NaN returns, and the
// compiler may emit a float add with its operands swapped.
func firstBitDiff(x, y []float64) int {
	for i := range x {
		if math.IsNaN(x[i]) && math.IsNaN(y[i]) {
			continue
		}
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}

// salt overwrites a fraction p of x with values drawn from specials.
func salt(rng *rand.Rand, x []float64, p float64, specials []float64) {
	for i := range x {
		if rng.Float64() < p {
			x[i] = specials[rng.Intn(len(specials))]
		}
	}
}

var (
	negZero = math.Copysign(0, -1)
	zeros   = []float64{0, negZero}
	nonFin  = []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	allSalt = []float64{0, negZero, math.Inf(1), math.Inf(-1), math.NaN()}
)

// saltMode picks how a differential case's operands are salted.
type saltMode int

const (
	saltNone saltMode = iota
	// saltZeroSkip makes A dense in ±0 and B carry ±Inf/NaN, and C
	// start at -0 in places: a kernel that added the skipped
	// 0*b(kk,j) terms would turn -0 into +0 and finite sums into NaN.
	saltZeroSkip
	// saltAll sprinkles every special into all three operands.
	saltAll
)

// TestDgemmBitwiseMatchesIKJ pins the micro-kernel to the i-k-j kernel
// bit for bit over random shapes (m, n, k in 0..70, most not multiples
// of 4), all four transpose combinations, padded leading dimensions,
// alpha in {1, 1.3}, beta in {0, 1, 0.7}, and operands salted with
// 0, -0, ±Inf and NaN.
func TestDgemmBitwiseMatchesIKJ(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type dims struct{ m, n, k int }
	shapes := []dims{{0, 5, 3}, {5, 0, 3}, {5, 3, 0}, {1, 1, 1}, {4, 4, 4}, {8, 8, 8}, {8, 64, 48}, {70, 70, 70}}
	for len(shapes) < 40 {
		shapes = append(shapes, dims{rng.Intn(71), rng.Intn(71), rng.Intn(71)})
	}
	cases := 0
	for _, d := range shapes {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for _, alpha := range []float64{1, 1.3} {
					for _, beta := range []float64{0, 1, 0.7} {
						mode := saltMode(cases % 3)
						cases++
						checkBitwise(t, rng, d.m, d.n, d.k, ta, tb, alpha, beta, mode)
					}
				}
			}
		}
	}
	// Above parallelThreshold: the row split over the worker pool must
	// reproduce the oracle too.
	checkBitwise(t, rng, 130, 270, 150, false, true, 1.3, 0.7, saltZeroSkip)
	checkBitwise(t, rng, 130, 270, 150, true, false, 1, 1, saltAll)
}

// checkBitwise runs one differential case: random operands with padded
// leading dimensions, salted per mode, through Dgemm and ikjGemm.
func checkBitwise(t *testing.T, rng *rand.Rand, m, n, k int, ta, tb bool, alpha, beta float64, mode saltMode) {
	t.Helper()
	lda := cols(ta, m, k) + rng.Intn(4)
	ldb := cols(tb, k, n) + rng.Intn(4)
	ldc := n + rng.Intn(4)
	a := randomSlice(rng, rows(ta, m, k)*lda)
	b := randomSlice(rng, rows(tb, k, n)*ldb)
	c := randomSlice(rng, m*ldc)
	switch mode {
	case saltZeroSkip:
		salt(rng, a, 0.3, zeros)
		salt(rng, b, 0.05, nonFin)
		salt(rng, c, 0.3, []float64{negZero})
	case saltAll:
		salt(rng, a, 0.02, allSalt)
		salt(rng, b, 0.02, allSalt)
		salt(rng, c, 0.02, allSalt)
	}
	want := append([]float64(nil), c...)
	ikjGemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
	Dgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	if i := firstBitDiff(c, want); i >= 0 {
		t.Errorf("m=%d n=%d k=%d transA=%v transB=%v alpha=%v beta=%v salt=%d ld=(%d,%d,%d): C[%d] = %v (%#x), oracle %v (%#x)",
			m, n, k, ta, tb, alpha, beta, mode, lda, ldb, ldc, i,
			c[i], math.Float64bits(c[i]), want[i], math.Float64bits(want[i]))
	}
}

// gemmShape is one Dgemm call shape with op(A) = A.
type gemmShape struct {
	m, n, k int
	transB  bool
}

// ldb is the tight leading dimension of the stored B.
func (s gemmShape) ldb() int {
	if s.transB {
		return s.k
	}
	return s.n
}

// transformShapes are the four GEMM shapes one hybrid execute run at
// n=48, tile 8, Procs 2 under a 32 MB cap issues (op1 through op4 of
// fullyfused-inner; op4 multiplies by a transposed B).
var transformShapes = []gemmShape{
	{8, 3072, 48, false},
	{8, 64, 48, false},
	{8, 8, 48, false},
	{8, 8, 8, true},
}

// TestDgemmNoAllocs pins the serial path at the transform's shapes to
// zero heap allocations per call.
func TestDgemmNoAllocs(t *testing.T) {
	defer SetWorkers(Workers())
	SetWorkers(1)
	rng := rand.New(rand.NewSource(17))
	for _, s := range transformShapes {
		a := randomSlice(rng, s.m*s.k)
		b := randomSlice(rng, s.k*s.n)
		c := make([]float64, s.m*s.n)
		allocs := testing.AllocsPerRun(20, func() {
			Dgemm(false, s.transB, s.m, s.n, s.k, 1, a, s.k, b, s.ldb(), 1, c, s.n)
		})
		if allocs != 0 {
			t.Errorf("%dx%dx%d transB=%v: %v allocs per call, want 0", s.m, s.n, s.k, s.transB, allocs)
		}
	}
}

// BenchmarkDgemmShapes reports serial GF/s at the transform's shapes and
// at square sizes (run with -bench DgemmShapes).
func BenchmarkDgemmShapes(b *testing.B) {
	defer SetWorkers(Workers())
	SetWorkers(1)
	square := []gemmShape{{64, 64, 64, false}, {256, 256, 256, false}, {256, 256, 256, true}, {512, 512, 512, false}}
	for _, s := range append(square, transformShapes...) {
		name := fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k)
		if s.transB {
			name += "T"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := randomSlice(rng, s.m*s.k)
			bb := randomSlice(rng, s.k*s.n)
			c := make([]float64, s.m*s.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Dgemm(false, s.transB, s.m, s.n, s.k, 1, a, s.k, bb, s.ldb(), 1, c, s.n)
			}
			b.ReportMetric(float64(GemmFlops(s.m, s.n, s.k))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
		})
	}
}
