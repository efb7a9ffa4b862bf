package metricsdiscipline_test

import (
	"testing"

	"fourindex/internal/analysis/analysistest"
	"fourindex/internal/analysis/metricsdiscipline"
)

func TestCountersAndClockDiscipline(t *testing.T) {
	analysistest.Run(t, metricsdiscipline.Analyzer, "./testdata/src/metrics")
}

func TestTracerFieldsGuarded(t *testing.T) {
	analysistest.Run(t, metricsdiscipline.Analyzer, "./testdata/src/trace")
}

func TestPackageMainMayUseWallClock(t *testing.T) {
	analysistest.Run(t, metricsdiscipline.Analyzer, "./testdata/src/clockmain")
}

// TestPerfHarnessClockFlagged checks the benchmark harness has no
// wall-clock exemption: its report is deterministic accounting.
func TestPerfHarnessClockFlagged(t *testing.T) {
	analysistest.Run(t, metricsdiscipline.Analyzer, "./testdata/src/perf")
}
