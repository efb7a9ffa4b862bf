package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"fourindex/internal/experiments"
	ifx "fourindex/internal/fourindex"
)

// planFigs are the Figure 2 panels the plan workload replays: their 7
// points run in 0.6-2.1 s each in cost mode, at 32-252 simulated
// processes.
var planFigs = map[string]bool{"2a": true, "2c": true}

// planRing holds every event of the hybrid run of the largest plan
// point (C60H20 on 140 cores of System B, about 2.15 million events),
// so trace.dropped stays 0.
const planRing = 2_500_000

// planMinPasses is the fewest passes a run measures. The tail rule puts
// latency_tail_s at rank n-10 of n samples; with four passes that is
// p64, the middle of the fifth of the seven points' latency bands, while
// a run that stopped at three or five passes would read the tail at a
// band edge and jump between two points' latencies.
const planMinPasses = 4

// planPoints returns the plan workload's points in Figure 2 order.
func planPoints() []experiments.Point {
	var pts []experiments.Point
	for _, pt := range experiments.Figure2() {
		if planFigs[pt.Fig] {
			pts = append(pts, pt)
		}
	}
	return pts
}

// planOrder is the seeded order of the points in one pass; each pass
// draws a fresh permutation.
func planOrder(seed uint64, pass, points int) []int {
	return rand.New(rand.NewPCG(seed, uint64(pass))).Perm(points)
}

// planWarmup is the point the discarded warm-up op runs: a fixed one,
// so set-up time does not depend on the seed.
func planWarmup(pts []experiments.Point) experiments.Point {
	for _, pt := range pts {
		if pt.Molecule == "Hyperpolar" && pt.System == "A" && pt.Cores == 64 {
			return pt
		}
	}
	return pts[0]
}

func pointName(pt experiments.Point) string {
	return fmt.Sprintf("%s/%s/%s/%d", pt.Fig, pt.Molecule, pt.System, pt.Cores)
}

// planState checks each point's outcome against the paper and against
// the point's first pass.
type planState struct {
	pts   []experiments.Point
	first map[int]experiments.Outcome
}

func newPlanState() *planState {
	return &planState{pts: planPoints(), first: map[int]experiments.Outcome{}}
}

// verify checks that the winner matches the paper (equal bars where the
// unfused transform fits, the hybrid ahead where it does not, NWChem
// failing where the paper says so) and that the simulated times repeat
// the point's first pass exactly.
func (st *planState) verify(k int, o experiments.Outcome) error {
	pt := st.pts[k]
	switch {
	case pt.PaperNWChemFailed:
		if !o.NWChemFailed {
			return fmt.Errorf("plan %s: paper has NWChem failing, it ran as %v", pointName(pt), o.NWChemScheme)
		}
	case o.NWChemFailed:
		return fmt.Errorf("plan %s: every NWChem variant failed", pointName(pt))
	case pt.PaperEqual:
		if o.HybridScheme != ifx.Unfused || o.HybridKs != o.NWChemKs {
			return fmt.Errorf("plan %s: paper has equal bars, hybrid ran %v at %g ks vs NWChem %g ks",
				pointName(pt), o.HybridScheme, o.HybridKs, o.NWChemKs)
		}
	default:
		if o.HybridScheme == ifx.Unfused || !(o.Speedup > 1) {
			return fmt.Errorf("plan %s: paper has the hybrid ahead, it ran %v at speedup %g",
				pointName(pt), o.HybridScheme, o.Speedup)
		}
	}
	if f, ok := st.first[k]; ok {
		if o.HybridKs != f.HybridKs || o.NWChemKs != f.NWChemKs {
			return fmt.Errorf("plan %s: simulated %g/%g ks, first pass %g/%g ks",
				pointName(pt), o.HybridKs, o.NWChemKs, f.HybridKs, f.NWChemKs)
		}
	} else {
		st.first[k] = o
	}
	return nil
}

func (st *planState) pin(rep *report) {
	names := make([]string, len(st.pts))
	for i, pt := range st.pts {
		names[i] = pointName(pt)
	}
	rep.add("input", fmt.Sprintf("cost-mode Figure 2 points %v, seeded order per pass, hybrid + both NWChem baselines per point, one client; warm-up %s",
		names, pointName(planWarmup(st.pts))))
}

// setupPlan runs the discarded warm-up point and returns its seconds.
func setupPlan(st *planState) (float64, error) {
	t0 := time.Now()
	if _, err := experiments.RunPoint(planWarmup(st.pts)); err != nil {
		return 0, fmt.Errorf("plan warm-up: %w", err)
	}
	return since(t0), nil
}

// runPlan measures whole passes over the points, at least
// planMinPasses and more while the run time lasts, so every run weighs
// every point equally.
func runPlan(cfg config, rep *report) (*measured, error) {
	st := newPlanState()
	m := &measured{}
	for i := 0; i < setupReps; i++ {
		sec, err := setupPlan(st)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, sec)
	}
	st.pin(rep)
	heap := startHeapSampler()
	perPoint := make([][]float64, len(st.pts))
	passes := 0
	for ; passes < planMinPasses || m.window < cfg.seconds; passes++ {
		for _, k := range planOrder(cfg.seed, passes, len(st.pts)) {
			a0 := totalAlloc()
			t0 := time.Now()
			o, err := experiments.RunPoint(st.pts[k])
			lat := since(t0)
			m.alloc += totalAlloc() - a0
			m.lat = append(m.lat, lat)
			perPoint[k] = append(perPoint[k], lat)
			m.window += lat
			m.attempted++
			if err == nil {
				err = st.verify(k, o)
			}
			if err != nil {
				m.failed++
				rep.add("failure", err)
			}
		}
	}
	m.peakHeap = heap.finish()
	rep.add("passes", passes)
	for k, lat := range perPoint {
		rep.add("latency_p50 "+pointName(st.pts[k]), fmt.Sprintf("%.4f s %v", median(lat), lat))
	}
	return m, nil
}

// tracedPlan runs whole passes of point pairs (untraced, then traced
// through RunPointTraced) for the run time. Only the hybrid run of a
// point is traced, so its layer counts are the hybrid's.
func tracedPlan(cfg config, rep *report) (*traced, error) {
	st := newPlanState()
	if _, err := setupPlan(st); err != nil {
		return nil, err
	}
	st.pin(rep)
	t := &traced{}
	var pairs opPairs
	start := time.Now()
	for pass := 0; pass == 0 || since(start) < cfg.seconds; pass++ {
		for _, k := range planOrder(cfg.seed, pass, len(st.pts)) {
			pt := st.pts[k]
			t0 := time.Now()
			o, err := experiments.RunPoint(pt)
			plain := since(t0)
			t.count(rep, err, func() error { return st.verify(k, o) })

			tr, rec := newTracer(planRing)
			t0 = time.Now()
			o, err = experiments.RunPointTraced(pt, tr)
			wall := since(t0)
			t.count(rep, err, func() error { return st.verify(k, o) })
			if err != nil {
				continue
			}
			pairs.add(plain, digestTrace(tr, rec, wall))
			// The ring is the run's largest allocation; collect it
			// before the next point allocates another.
			runtime.GC()
		}
	}
	t.metrics = pairs.metrics(rep)
	if err := addProbes(t, cfg.seed, rep, true); err != nil {
		return nil, err
	}
	return t, nil
}
