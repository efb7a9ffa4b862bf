package perf

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fourindex/internal/fourindex"
)

var update = flag.Bool("update", false, "rewrite the golden benchmark report")

// goldenConfig is one tiny execute cell; the encoded report must be
// byte-stable across machines and runs.
func goldenConfig() Config {
	return Config{
		Schemes:       []fourindex.Scheme{fourindex.Unfused, fourindex.FullyFusedInner},
		ExecutePoints: []ExecutePoint{{N: 12, Procs: 2}},
	}
}

// TestGoldenReportSchema pins the report's JSON shape (field names, key
// order, schema version) and the accounting of a fixed execute point,
// and checks that bound attainment lands in (0, 1]. Regenerate with
// `go test ./internal/perf -update` only when the schema or the
// schedules change intentionally.
func TestGoldenReportSchema(t *testing.T) {
	rep, err := Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != SchemaVersion {
		t.Fatalf("SchemaVersion = %d, want %d", rep.SchemaVersion, SchemaVersion)
	}
	for _, p := range rep.Points {
		if p.Attained <= 0 || p.Attained > 1.000001 {
			t.Errorf("%s n=%d: attained %v outside (0, 1]", p.Scheme, p.N, p.Attained)
		}
	}
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_bench.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/perf -update` to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("benchmark report drifted from golden (%d vs %d bytes); regenerate with -update if the schema or schedules changed intentionally",
			buf.Len(), len(want))
	}
}

// TestCostModeDeterminism runs the same cost-mode matrix twice and
// requires byte-identical reports: the simulated clock, the counters and
// the audit join must not depend on host scheduling.
func TestCostModeDeterminism(t *testing.T) {
	cfg := Config{
		Schemes:    []fourindex.Scheme{fourindex.Unfused, fourindex.Fused1234Pair},
		CostPoints: []CostPoint{{Molecule: "Hyperpolar", System: "A", Cores: 32}},
	}
	encode := func() []byte {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Errorf("two cost-mode runs encoded differently (%d vs %d bytes)", len(a), len(b))
	}
}

// TestRoundTrip checks Decode inverts Encode.
func TestRoundTrip(t *testing.T) {
	rep, err := Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), buf.Bytes()...)
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := got.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, buf2.Bytes()) {
		t.Error("Decode(Encode(r)) re-encoded differently")
	}
}
