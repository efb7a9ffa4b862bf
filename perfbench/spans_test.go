package main

import (
	"math"
	"testing"
	"time"

	ifx "fourindex/internal/fourindex"
)

func evs(spec ...any) []stamp {
	var out []stamp
	for i := 0; i < len(spec); i += 3 {
		out = append(out, stamp{Kind: spec[i].(string), Label: spec[i+1].(string), At: time.Duration(spec[i+2].(int)) * time.Millisecond})
	}
	return out
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPairSpansHybridFallback(t *testing.T) {
	// The unfused attempt dies in op1 with ErrGlobalOOM; its deferred
	// closer ends op1 and the root, the driver notes the fallback and the
	// fused schedule runs two l-slabs.
	got := pairSpans(evs(
		"span-begin", "unfused", 0,
		"span-begin", "generate-A", 0,
		"span-end", "generate-A", 60,
		"span-begin", "op1", 60,
		"span-end", "op1", 61,
		"span-end", "unfused", 61,
		"mark", "hybrid: unfused hit ErrGlobalOOM, falling back to fullyfused-inner", 61,
		"span-begin", "fullyfused-inner", 62,
		"mark", "l-slab 0/2", 62,
		"span-begin", "generate-A-slab", 62,
		"span-end", "generate-A-slab", 72,
		"span-begin", "op12-fused", 72,
		"span-end", "op12-fused", 100,
		"span-begin", "op34-fused", 100,
		"span-end", "op34-fused", 130,
		"mark", "l-slab 1/2", 130,
		"span-begin", "generate-A-slab", 130,
		"span-end", "generate-A-slab", 140,
		"span-begin", "op12-fused", 140,
		"span-end", "op12-fused", 170,
		"span-begin", "op34-fused", 170,
		"span-end", "op34-fused", 200,
		"span-end", "fullyfused-inner", 201,
	))
	want := map[string]float64{
		"generate-A": 0.060, "op1": 0.001,
		"generate-A-slab": 0.020, "op12-fused": 0.058, "op34-fused": 0.060,
	}
	if len(got.Phase) != len(want) {
		t.Fatalf("phases %v, want %v", got.Phase, want)
	}
	for k, v := range want {
		if !near(got.Phase[k], v) {
			t.Errorf("phase %s = %v, want %v", k, got.Phase[k], v)
		}
	}
	if got.Roots != 2 || !near(got.Root, 0.061+0.139) || got.Unmatched != 0 {
		t.Errorf("roots %d (%v s), unmatched %d; want 2 roots, 0.2 s, 0 unmatched", got.Roots, got.Root, got.Unmatched)
	}
	if !near(got.phaseSum(), 0.199) {
		t.Errorf("phase sum %v, want 0.199", got.phaseSum())
	}
}

func TestPairSpansUnmatched(t *testing.T) {
	got := pairSpans(evs(
		"span-end", "stray", 0, // end with nothing open
		"span-begin", "root", 0,
		"span-begin", "a", 1,
		"span-end", "b", 2, // label mismatch: a is dropped
		"span-begin", "c", 3, // never closed
	))
	if got.Unmatched != 4 || len(got.Phase) != 0 || got.Roots != 0 {
		t.Errorf("got %+v, want 4 unmatched (stray end, mismatch, open c, open root) and nothing paired", got)
	}
}

// TestPairSpansRealHybrid pairs the progress events of a real execute
// op: the hybrid driver tries the unfused schedule first, falls back to
// fullyfused-inner when it runs out of the 32 MB cap, and every span
// still pairs.
func TestPairSpansRealHybrid(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full n=48 transform")
	}
	opt, err := execOptions(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, rec := newTracer(execRing)
	opt.Trace = tr
	t0 := time.Now()
	res, err := ifx.Run(ifx.Hybrid, opt)
	wall := since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChosenScheme != ifx.FullyFusedInner {
		t.Fatalf("hybrid chose %v, want fullyfused-inner", res.ChosenScheme)
	}
	l := digestTrace(tr, rec, wall)
	p := l.phases
	if p.Unmatched != 0 || p.Roots != 2 {
		t.Fatalf("unmatched %d, roots %d; want 0 and 2 (unfused attempt + fused run)", p.Unmatched, p.Roots)
	}
	for _, ph := range append([]string{"generate-A"}, fusedPhases...) {
		if p.Phase[ph] <= 0 {
			t.Errorf("phase %s has no time: %v", ph, p.Phase)
		}
	}
	if cover := p.phaseSum() / wall; cover > 1 || cover < 0.9 {
		t.Errorf("phases cover %.3f of the op", cover)
	}
	if l.peakBytes != res.PeakGlobalBytes || l.dropped != 0 {
		t.Errorf("replayed peak %d B vs result %d B, dropped %d", l.peakBytes, res.PeakGlobalBytes, l.dropped)
	}
}
