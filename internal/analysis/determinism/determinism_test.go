package determinism_test

import (
	"testing"

	"fourindex/internal/analysis/analysistest"
	"fourindex/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "./testdata/src/det")
}

// TestPerfNotExempt checks the benchmark harness has no clock or
// randomness carve-out: a package whose import path ends in /perf is
// flagged like any other, and map iteration order still may not reach
// its outputs.
func TestPerfNotExempt(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "./testdata/src/perf")
}
