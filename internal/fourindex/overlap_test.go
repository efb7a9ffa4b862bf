package fourindex

import (
	"testing"

	"fourindex/internal/chem"
	"fourindex/internal/faults"
	"fourindex/internal/ga"
)

// TestOverlapBitwiseIdentical is the core execute-mode overlap
// contract: every schedule produces a C bitwise identical with the
// nonblocking path on and off. The double-buffered gets read the same
// values (tiles are frozen or single-writer across the prefetch window)
// and deferred writes land in per-process program order, so not a
// single bit may move. The data-movement accounting must not move
// either: flops, elements moved at every level, messages and peak
// global memory are equal with overlap on and off, which is why the
// benchmark matrix records execute points with overlap off only.
func TestOverlapBitwiseIdentical(t *testing.T) {
	sp := chem.MustSpec(12, 2, 11)
	base := Options{Spec: sp, Procs: 3, Mode: ga.Execute, TileN: 4, TileL: 3}
	for _, scheme := range append(append([]Scheme{}, allSchemes...), NWChemFused, Hybrid) {
		blocking, err := Run(scheme, base)
		if err != nil {
			t.Fatalf("%v overlap off: %v", scheme, err)
		}
		o := base
		o.Overlap = true
		overlapped, err := Run(scheme, o)
		if err != nil {
			t.Fatalf("%v overlap on: %v", scheme, err)
		}
		bitwiseEqual(t, scheme.String()+" overlap", overlapped.C.Data(), blocking.C.Data())
		for _, c := range []struct {
			name    string
			off, on int64
		}{
			{"flops", blocking.Totals.Flops, overlapped.Totals.Flops},
			{"comm volume", blocking.CommVolume, overlapped.CommVolume},
			{"intra volume", blocking.IntraVolume, overlapped.IntraVolume},
			{"disk volume", blocking.DiskVolume, overlapped.DiskVolume},
			{"messages", blocking.Totals.CommMessages, overlapped.Totals.CommMessages},
			{"peak global bytes", blocking.PeakGlobalBytes, overlapped.PeakGlobalBytes},
		} {
			if c.off != c.on {
				t.Errorf("%v: %s %d with overlap off, %d on", scheme, c.name, c.off, c.on)
			}
		}
	}
}

// TestOverlapReducesSimSeconds pins the cost-model win: with a machine
// model attached, the nonblocking pipeline must strictly reduce
// simulated wall time for every schedule (the exposed part of each
// prefetched transfer shrinks, everything else is unchanged), and the
// exposed + overlapped split must cover at least the blocking run's
// total transfer time — overlap hides communication, it never deletes
// it. The sum may exceed the blocking total: a wait on a transfer still
// queued behind earlier ones on the process's comm channel is charged
// the queueing delay too.
func TestOverlapReducesSimSeconds(t *testing.T) {
	const procs = 16
	run := mustRun(t, procs)
	sp := chem.MustSpec(128, 1, 3)
	base := Options{Spec: sp, Procs: procs, Mode: ga.Cost, Run: &run, TileN: 16}
	for _, scheme := range append(append([]Scheme{}, allSchemes...), NWChemFused, Hybrid) {
		blocking, err := Run(scheme, base)
		if err != nil {
			t.Fatalf("%v overlap off: %v", scheme, err)
		}
		o := base
		o.Overlap = true
		overlapped, err := Run(scheme, o)
		if err != nil {
			t.Fatalf("%v overlap on: %v", scheme, err)
		}
		if overlapped.ElapsedSeconds >= blocking.ElapsedSeconds {
			t.Errorf("%v: overlap did not reduce simulated time (%.4f s vs %.4f s)",
				scheme, overlapped.ElapsedSeconds, blocking.ElapsedSeconds)
		}
		if overlapped.OverlapCommSeconds <= 0 {
			t.Errorf("%v: no transfer time hidden (%v s)", scheme, overlapped.OverlapCommSeconds)
		}
		if blocking.OverlapCommSeconds != 0 {
			t.Errorf("%v: blocking run reports %v s hidden, want 0", scheme, blocking.OverlapCommSeconds)
		}
		if overlapped.ExposedCommSeconds >= blocking.ExposedCommSeconds {
			t.Errorf("%v: overlap did not reduce exposed transfer time (%v s vs %v s)",
				scheme, overlapped.ExposedCommSeconds, blocking.ExposedCommSeconds)
		}
		total := overlapped.ExposedCommSeconds + overlapped.OverlapCommSeconds
		if want := blocking.ExposedCommSeconds; total < want*(1-1e-9) {
			t.Errorf("%v: exposed+overlapped = %v s, below the blocking total %v s (communication deleted)",
				scheme, total, want)
		}
	}
}

// TestOverlapEfficiencyMonotone checks the e knob orders runs sensibly:
// lower efficiency hides less and exposes more, approaching the
// blocking sum rule as e -> 0.
func TestOverlapEfficiencyMonotone(t *testing.T) {
	const procs = 8
	run := mustRun(t, procs)
	sp := chem.MustSpec(96, 1, 3)
	base := Options{Spec: sp, Procs: procs, Mode: ga.Cost, Run: &run, TileN: 16, Overlap: true}
	var prevElapsed, prevExposed float64
	for i, eff := range []float64{1, 0.5, 0.1} {
		o := base
		o.OverlapEfficiency = eff
		res, err := Run(FullyFused, o)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if res.ElapsedSeconds < prevElapsed {
				t.Errorf("eff %v: elapsed %v s fell below the higher-efficiency run's %v s", eff, res.ElapsedSeconds, prevElapsed)
			}
			if res.ExposedCommSeconds <= prevExposed {
				t.Errorf("eff %v: exposed %v s not above the higher-efficiency run's %v s", eff, res.ExposedCommSeconds, prevExposed)
			}
		}
		prevElapsed, prevExposed = res.ElapsedSeconds, res.ExposedCommSeconds
	}
}

// TestChaosOverlapDeterministic extends the chaos gate to the
// nonblocking path: faults fire at Wait in per-process program order,
// so a seeded plan must replay identically — every completed run
// bitwise matches the fault-free overlap run (itself bitwise equal to
// blocking), and failures carry the typed injected error.
func TestChaosOverlapDeterministic(t *testing.T) {
	sp := chem.MustSpec(8, 1, 5)
	opt := Options{Spec: sp, Procs: 3, Mode: ga.Execute, TileN: 3, TileL: 2, Overlap: true}
	seeds := uint64(30)
	if testing.Short() {
		seeds = 6
	}
	for _, scheme := range []Scheme{Unfused, FullyFused, FullyFusedInner, NWChemFused, Hybrid} {
		clean, err := Run(scheme, opt)
		if err != nil {
			t.Fatalf("%v fault-free: %v", scheme, err)
		}
		want := clean.C.Data()
		completed := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			o := opt
			o.Faults = &faults.Injection{
				Plan:       faults.RandomPlan(seed, 0.1, o.Procs),
				Checkpoint: faults.NewMemCheckpoint(),
			}
			res, err := Run(scheme, o)
			if err != nil {
				if !faults.Injected(err) {
					t.Errorf("%v seed %d: failed with a non-injected error: %v", scheme, seed, err)
				}
				continue
			}
			completed++
			bitwiseEqual(t, scheme.String()+" overlap", res.C.Data(), want)
		}
		if completed == 0 {
			t.Errorf("%v: no seed out of %d completed under a 10%% fault rate with overlap on", scheme, seeds)
		}
	}
}
