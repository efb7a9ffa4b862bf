package perf

import (
	"fmt"
	"time"

	"fourindex/internal/blas"
)

// GemmTransBResult reports the transposed-B GEMM microbenchmark:
// C += A*B with B stored untransposed versus C += A*B^T. Both run
// through the same 4x2 register micro-kernel, which reads B through a
// (row stride, column stride) pair: two adjacent elements of a row
// untransposed, two rows a leading dimension apart transposed. Both
// products perform identical flop counts, so the ratio isolates the
// cost of the transposed operand layout. Wall-clock quantities;
// Measure only.
type GemmTransBResult struct {
	// M, N, K are the product dimensions (op(A) is M x K, op(B) K x N).
	M int `json:"m"`
	N int `json:"n"`
	K int `json:"k"`
	// NoTransSeconds is the best time of the untransposed-B product;
	// TransBSeconds the best time of the B^T product.
	NoTransSeconds float64 `json:"noTransSeconds"`
	TransBSeconds  float64 `json:"transBSeconds"`
	// Ratio is TransBSeconds / NoTransSeconds (1.0 = the strided B^T
	// reads cost nothing extra).
	Ratio float64 `json:"ratio"`
}

// gemmBenchTrials is the best-of count for each variant's timing.
const gemmBenchTrials = 3

// BenchGemmTransB times Dgemm with transB off and on at the given
// dimensions. The matrices are filled deterministically; only timings
// leave the function.
func BenchGemmTransB(m, n, k int) GemmTransBResult {
	a := make([]float64, m*k)
	b := make([]float64, k*n) // also read as the n x k matrix whose transpose is k x n
	c := make([]float64, m*n)
	for i := range a {
		a[i] = float64(i%13) - 6
	}
	for i := range b {
		b[i] = float64(i%7) - 3
	}

	run := func(transB bool, ldb int) float64 {
		best := 0.0
		for trial := 0; trial < gemmBenchTrials; trial++ {
			start := time.Now()
			blas.Dgemm(false, transB, m, n, k, 1, a, k, b, ldb, 0, c, n)
			wall := time.Since(start).Seconds()
			if trial == 0 || wall < best {
				best = wall
			}
		}
		return best
	}

	res := GemmTransBResult{M: m, N: n, K: k}
	res.NoTransSeconds = run(false, n)
	res.TransBSeconds = run(true, k)
	if res.NoTransSeconds > 0 {
		res.Ratio = res.TransBSeconds / res.NoTransSeconds
	}
	return res
}

// String renders the result for the bench subcommand's summary.
func (r GemmTransBResult) String() string {
	return fmt.Sprintf("gemm B^T:  %dx%dx%d: noTrans %.3fms, transB %.3fms (%.2fx)",
		r.M, r.N, r.K, 1e3*r.NoTransSeconds, 1e3*r.TransBSeconds, r.Ratio)
}
