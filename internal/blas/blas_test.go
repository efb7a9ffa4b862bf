package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveGemm is the reference: C = alpha*op(A)*op(B) + beta*C.
func naiveGemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				var av, bv float64
				if transA {
					av = a[kk*lda+i]
				} else {
					av = a[i*lda+kk]
				}
				if transB {
					bv = b[j*ldb+kk]
				} else {
					bv = b[kk*ldb+j]
				}
				s += av * bv
			}
			c[i*ldc+j] = alpha*s + beta*c[i*ldc+j]
		}
	}
}

func randomSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestDgemmAllTransposeCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			m, n, k := 7, 9, 5
			lda, ldb, ldc := k, n, n
			if ta {
				lda = m
			}
			if tb {
				ldb = k
			}
			a := randomSlice(rng, rows(ta, m, k)*lda)
			b := randomSlice(rng, rows(tb, k, n)*ldb)
			c := randomSlice(rng, m*ldc)
			want := append([]float64(nil), c...)
			naiveGemm(ta, tb, m, n, k, 1.3, a, lda, b, ldb, 0.7, want, ldc)
			Dgemm(ta, tb, m, n, k, 1.3, a, lda, b, ldb, 0.7, c, ldc)
			if d := maxAbsDiff(c, want); d > 1e-12 {
				t.Errorf("transA=%v transB=%v: max diff %v", ta, tb, d)
			}
		}
	}
}

func TestDgemmBetaZeroOverwritesNaN(t *testing.T) {
	// beta == 0 must overwrite C even when it holds NaN.
	m, n, k := 2, 2, 2
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	c := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	Dgemm(false, false, m, n, k, 1, a, k, b, n, 0, c, n)
	want := []float64{19, 22, 43, 50}
	if d := maxAbsDiff(c, want); d > 1e-13 {
		t.Errorf("C = %v, want %v", c, want)
	}
}

func TestDgemmAlphaZeroOnlyScales(t *testing.T) {
	c := []float64{1, 2, 3, 4}
	Dgemm(false, false, 2, 2, 2, 0, []float64{9, 9, 9, 9}, 2, []float64{9, 9, 9, 9}, 2, 2, c, 2)
	want := []float64{2, 4, 6, 8}
	if maxAbsDiff(c, want) != 0 {
		t.Errorf("C = %v, want %v", c, want)
	}
}

func TestDgemmZeroK(t *testing.T) {
	c := []float64{1, 2, 3, 4}
	Dgemm(false, false, 2, 2, 0, 1, nil, 1, nil, 1, 1, c, 2)
	want := []float64{1, 2, 3, 4}
	if maxAbsDiff(c, want) != 0 {
		t.Errorf("k=0 modified C: %v", c)
	}
}

func TestDgemmZeroMN(t *testing.T) {
	// Must be a no-op, not a panic.
	Dgemm(false, false, 0, 5, 3, 1, nil, 3, make([]float64, 15), 5, 1, nil, 5)
	Dgemm(false, false, 5, 0, 3, 1, make([]float64, 15), 3, nil, 1, 1, nil, 1)
}

func TestDgemmLeadingDimensions(t *testing.T) {
	// Submatrix multiply inside larger arrays (lda/ldb/ldc > logical cols).
	rng := rand.New(rand.NewSource(3))
	m, n, k := 3, 4, 5
	lda, ldb, ldc := 9, 11, 13
	a := randomSlice(rng, m*lda)
	b := randomSlice(rng, k*ldb)
	c := randomSlice(rng, m*ldc)
	want := append([]float64(nil), c...)
	naiveGemm(false, false, m, n, k, 2, a, lda, b, ldb, 1, want, ldc)
	Dgemm(false, false, m, n, k, 2, a, lda, b, ldb, 1, c, ldc)
	if d := maxAbsDiff(c, want); d > 1e-12 {
		t.Errorf("strided GEMM diff %v", d)
	}
}

func TestDgemmLargeCrossesBlockBoundaries(t *testing.T) {
	// m is not a multiple of 4 and n not of 2, so the 4x2 micro-tiles
	// meet both edge strips.
	rng := rand.New(rand.NewSource(5))
	m, n, k := 77, 273, 71
	a := randomSlice(rng, m*k)
	b := randomSlice(rng, k*n)
	c := make([]float64, m*n)
	want := make([]float64, m*n)
	naiveGemm(false, false, m, n, k, 1, a, k, b, n, 0, want, n)
	Dgemm(false, false, m, n, k, 1, a, k, b, n, 0, c, n)
	if d := maxAbsDiff(c, want); d > 1e-10 {
		t.Errorf("tiled GEMM diff %v", d)
	}
}

func TestDgemmParallelPathMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Force the parallel path by exceeding parallelThreshold; m = 162
	// splits into row chunks that are not multiples of the micro-tile
	// height.
	m, k := 162, 160
	n := parallelThreshold/(m*k) + 8
	a := randomSlice(rng, m*k)
	b := randomSlice(rng, k*n)
	c1 := make([]float64, m*n)
	c2 := make([]float64, m*n)
	gemmRows(false, false, 0, m, n, k, 1, a, k, b, n, c1, n)
	Dgemm(false, false, m, n, k, 1, a, k, b, n, 0, c2, n)
	if i := firstBitDiff(c1, c2); i >= 0 {
		t.Errorf("parallel vs serial differ at %d: %v vs %v", i, c2[i], c1[i])
	}
}

func TestDgemmParallelBetaFold(t *testing.T) {
	// Beta scaling is folded into the row-split workers rather than run
	// as a serial pre-pass; every beta class must still match the naive
	// reference above the parallel threshold.
	rng := rand.New(rand.NewSource(7))
	m, k := 160, 160
	n := parallelThreshold/(m*k) + 8
	a := randomSlice(rng, m*k)
	b := randomSlice(rng, k*n)
	for _, beta := range []float64{0, 0.5, 1} {
		c := randomSlice(rng, m*n)
		want := append([]float64(nil), c...)
		naiveGemm(false, false, m, n, k, 1.1, a, k, b, n, beta, want, n)
		Dgemm(false, false, m, n, k, 1.1, a, k, b, n, beta, c, n)
		if d := maxAbsDiff(c, want); d > 1e-10 {
			t.Errorf("beta=%v: parallel beta fold diff %v", beta, d)
		}
	}
}

func TestDgemmAlphaZeroLargeOnlyScales(t *testing.T) {
	// alpha == 0 short-circuits to a pure beta scale even at sizes that
	// would otherwise take the parallel path.
	m, k := 160, 160
	n := parallelThreshold/(m*k) + 8
	c := make([]float64, m*n)
	for i := range c {
		c[i] = 2
	}
	Dgemm(false, false, m, n, k, 0, make([]float64, m*k), k, make([]float64, k*n), n, 0.5, c, n)
	for i, v := range c {
		if v != 1 {
			t.Fatalf("element %d = %v, want 1", i, v)
		}
	}
}

func TestDgemmNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative dimension did not panic")
		}
	}()
	Dgemm(false, false, -1, 2, 2, 1, nil, 2, nil, 2, 1, nil, 2)
}

func TestDgemmShortSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short A slice did not panic")
		}
	}()
	Dgemm(false, false, 2, 2, 2, 1, []float64{1, 2, 3}, 2, make([]float64, 4), 2, 0, make([]float64, 4), 2)
}

func TestGemmFlops(t *testing.T) {
	if got := GemmFlops(3, 4, 5); got != 120 {
		t.Errorf("GemmFlops = %d, want 120", got)
	}
	big := GemmFlops(100000, 100000, 100000)
	if big != 2e15 {
		t.Errorf("GemmFlops large = %d", big)
	}
}

func TestDaxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Daxpy(2, x, y)
	want := []float64{12, 24, 36}
	if maxAbsDiff(y, want) != 0 {
		t.Errorf("Daxpy: %v", y)
	}
	Daxpy(0, x, y) // no-op
	if maxAbsDiff(y, want) != 0 {
		t.Errorf("Daxpy alpha=0 modified y: %v", y)
	}
}

func TestDaxpyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	Daxpy(1, []float64{1}, []float64{1, 2})
}

func TestDdot(t *testing.T) {
	if got := Ddot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Ddot = %v, want 32", got)
	}
}

func TestDscal(t *testing.T) {
	x := []float64{1, -2, 3}
	Dscal(-2, x)
	want := []float64{-2, 4, -6}
	if maxAbsDiff(x, want) != 0 {
		t.Errorf("Dscal: %v", x)
	}
}

func TestDger(t *testing.T) {
	a := make([]float64, 6)
	Dger(2, []float64{1, 2}, []float64{3, 4, 5}, a, 3)
	want := []float64{6, 8, 10, 12, 16, 20}
	if maxAbsDiff(a, want) != 0 {
		t.Errorf("Dger: %v", a)
	}
}

func TestIdamax(t *testing.T) {
	if got := Idamax([]float64{1, -5, 3}); got != 1 {
		t.Errorf("Idamax = %d, want 1", got)
	}
	if got := Idamax(nil); got != -1 {
		t.Errorf("Idamax(nil) = %d, want -1", got)
	}
}

// Property test: Dgemm agrees with the naive reference on random sizes
// and parameters.
func TestQuickDgemmMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, k := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		ta, tb := rng.Intn(2) == 1, rng.Intn(2) == 1
		alpha, beta := rng.NormFloat64(), rng.NormFloat64()
		lda, ldb, ldc := cols(ta, m, k)+rng.Intn(3), cols(tb, k, n)+rng.Intn(3), n+rng.Intn(3)
		a := randomSlice(rng, rows(ta, m, k)*lda)
		b := randomSlice(rng, rows(tb, k, n)*ldb)
		c := randomSlice(rng, m*ldc)
		want := append([]float64(nil), c...)
		naiveGemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
		Dgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		return maxAbsDiff(c, want) <= 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDgemm128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 128
	a := randomSlice(rng, n*n)
	bb := randomSlice(rng, n*n)
	c := make([]float64, n*n)
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemm(false, false, n, n, n, 1, a, n, bb, n, 0, c, n)
	}
}
