package main

import (
	"fmt"
	"time"

	"fourindex/internal/blas"
	"fourindex/internal/chem"
	ifx "fourindex/internal/fourindex"
	"fourindex/internal/ga"
	"fourindex/internal/tile"
)

// probeReps is how many timings each layer probe takes; it reports
// their median.
const probeReps = 5

// probeTarget is roughly how long one probe timing runs.
const probeTarget = 40 * time.Millisecond

// gemmShape is one GEMM shape the fused schedule issues at n=48 with
// tile 8.
type gemmShape struct {
	name    string
	m, n, k int
	transB  bool
}

var gemmShapes = []gemmShape{
	{"op1", 8, 512, 48, false},
	{"op2", 8, 64, 48, false},
	{"op3", 8, 8, 48, false},
	{"op4", 8, 8, 8, true},
}

// sink keeps probe results alive so the compiler cannot drop the work.
var sink float64

// timeReps calibrates a repetition count so one timing of f(reps) takes
// about probeTarget, then returns the median seconds per repetition
// over probeReps timings.
func timeReps(f func(reps int)) float64 {
	reps := 1
	for {
		t0 := time.Now()
		f(reps)
		if d := time.Since(t0); d >= probeTarget/4 || reps >= 1<<30 {
			reps = max(1, int(float64(reps)*float64(probeTarget)/float64(max(d, time.Microsecond))))
			break
		}
		reps *= 4
	}
	per := make([]float64, probeReps)
	for i := range per {
		t0 := time.Now()
		f(reps)
		per[i] = since(t0) / float64(reps)
	}
	return median(per)
}

// probeGemm times blas.Dgemm at each shape, accumulating into C the way
// the schedules do.
func probeGemm(ms map[string]metric) {
	for _, s := range gemmShapes {
		a := filled(s.m * s.k)
		b := filled(s.k * s.n)
		c := make([]float64, s.m*s.n)
		ldb := s.n
		if s.transB {
			ldb = s.k
		}
		sec := timeReps(func(reps int) {
			for r := 0; r < reps; r++ {
				blas.Dgemm(false, s.transB, s.m, s.n, s.k, 1, a, s.k, b, ldb, 1, c, s.n)
			}
		})
		sink += c[0]
		ms["blas."+s.name+"_gflops"] = metric{float64(blas.GemmFlops(s.m, s.n, s.k)) / sec / 1e9, "GF/s"}
	}
}

// probeChem times Spec.ComputeA over one A slab of the execute
// workload: all (i, j, k) and the first l tile.
func probeChem(seed uint64, ms map[string]metric) error {
	spec, err := chem.NewSpec(execN, execSym, specSeed(seed, saltExecute))
	if err != nil {
		return err
	}
	calls := execN * execN * execN * execTile
	sec := timeReps(func(reps int) {
		for r := 0; r < reps; r++ {
			s := 0.0
			for i := 0; i < execN; i++ {
				for j := 0; j < execN; j++ {
					for k := 0; k < execN; k++ {
						for l := 0; l < execTile; l++ {
							s += spec.ComputeA(i, j, k, l)
						}
					}
				}
			}
			sink += s
		}
	})
	ms["chem.computeA_ns"] = metric{1e9 * sec / float64(calls), "ns"}
	return nil
}

// probeGA times the execute-mode runtime's tile verbs at the execute
// workload's tile (8^4 elements) on its two processes: GetT over every
// tile, AccT into tiles the caller owns alone, and Barrier.
func probeGA(ms map[string]metric) error {
	rt, err := ga.NewRuntime(ga.Config{Procs: execProcs, Mode: ga.Execute})
	if err != nil {
		return err
	}
	g := tile.NewGrid(2*execTile, execTile)
	a, err := rt.CreateTiled("probe", []tile.Grid{g, g, g, g}, nil, tile.RoundRobin)
	if err != nil {
		return err
	}
	defer rt.DestroyTiled(a)
	words := execTile * execTile * execTile * execTile
	var tiles [][]int
	a.ForEachTile(func(c []int) { tiles = append(tiles, append([]int(nil), c...)) })
	if err := rt.Parallel(func(p *ga.Proc) {
		buf := filled(words)
		for _, c := range tiles {
			if a.Owner(c...) == p.ID() {
				p.PutT(a, buf, c...)
			}
		}
	}); err != nil {
		return err
	}
	var regionErr error
	region := func(body func(p *ga.Proc, buf []float64)) {
		if err := rt.Parallel(func(p *ga.Proc) { body(p, make([]float64, words)) }); err != nil {
			regionErr = err
		}
	}
	get := timeReps(func(reps int) {
		region(func(p *ga.Proc, buf []float64) {
			for r := 0; r < reps; r++ {
				p.GetT(a, buf, tiles[r%len(tiles)]...)
			}
		})
	})
	acc := timeReps(func(reps int) {
		region(func(p *ga.Proc, buf []float64) {
			for r := 0; r < reps; r++ {
				c := tiles[r%len(tiles)]
				if a.Owner(c...) == p.ID() {
					p.AccT(a, 1, buf, c...)
				}
			}
		})
	})
	barrier := timeReps(func(reps int) {
		region(func(p *ga.Proc, _ []float64) {
			for r := 0; r < reps; r++ {
				p.Barrier()
			}
		})
	})
	if regionErr != nil {
		return regionErr
	}
	// Half of the AccT repetitions land on each process's own tiles.
	ms["ga.get_ns_per_elem"] = metric{1e9 * get / float64(words), "ns"}
	ms["ga.acc_ns_per_elem"] = metric{1e9 * 2 * acc / float64(words), "ns"}
	ms["ga.barrier_us"] = metric{1e6 * barrier, "us"}
	return nil
}

// probeTune times the frontier tuner over the search space the server
// gives the serve workload's auto job (n=32, tiles 5 and 10, alpha
// parallelism 1 and 2) at the server's budget.
func probeTune(seed uint64, ms map[string]metric) error {
	spec, err := chem.NewSpec(32, 1, specSeed(seed, saltServeAuto))
	if err != nil {
		return err
	}
	run, err := serveRun()
	if err != nil {
		return err
	}
	opt := ifx.Options{Spec: spec, Procs: serveProcs, Run: run, GlobalMemBytes: serveBudget}
	space := ifx.TuneSpace{TileNs: []int{5, 10}, TileLs: []int{5, 10}, AlphaPars: []int{1, 2}, LPars: []int{1}}
	var simulated int
	times := make([]float64, 3)
	for i := range times {
		t0 := time.Now()
		ft, err := ifx.TuneFrontier(opt, space, 0)
		if err != nil {
			return err
		}
		times[i] = since(t0)
		simulated = ft.Simulated
	}
	ms["lb.tune_frontier_s"] = metric{median(times), "s"}
	ms["lb.tune_simulated"] = metric{float64(simulated), "count"}
	return nil
}

// probeDryRun times the admission dry run of the serve workload's cost
// job: a cost-mode fullyfused-inner transform of Hyperpolar (n=368) on
// the job's two processes at the planner's tile (368/24 = 15).
func probeDryRun(seed uint64, ms map[string]metric) error {
	mol, err := chem.ByName("Hyperpolar")
	if err != nil {
		return err
	}
	spec, err := chem.NewSpec(mol.Orbitals, 1, specSeed(seed, saltServeCost))
	if err != nil {
		return err
	}
	run, err := serveRun()
	if err != nil {
		return err
	}
	tn := mol.Orbitals / 24
	opt := ifx.Options{Spec: spec, Procs: serveProcs, Mode: ga.Cost, Run: run, TileN: tn, TileL: tn}
	times := make([]float64, 3)
	for i := range times {
		t0 := time.Now()
		if _, err := ifx.Run(ifx.FullyFusedInner, opt); err != nil {
			return fmt.Errorf("dry run: %w", err)
		}
		times[i] = since(t0)
	}
	ms["serve.dry_run_s"] = metric{median(times), "s"}
	return nil
}

// addProbes runs the layer probes every traced run reports, and on the
// execute and plan workloads the serve-layer probe too (the serve
// workload measures that layer from its own jobs).
func addProbes(t *traced, seed uint64, rep *report, withServe bool) error {
	if t.metrics == nil {
		t.metrics = map[string]metric{}
	}
	probeGemm(t.metrics)
	if err := probeChem(seed, t.metrics); err != nil {
		return err
	}
	if err := probeGA(t.metrics); err != nil {
		return err
	}
	if err := probeTune(seed, t.metrics); err != nil {
		return err
	}
	if err := probeDryRun(seed, t.metrics); err != nil {
		return err
	}
	if withServe {
		if err := serveProbe(seed, t, rep); err != nil {
			return err
		}
	}
	rep.addMetrics(t.metrics)
	return nil
}

// filled returns n deterministic values in [-1, 1).
func filled(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*7919)%2003)/1001.5 - 1
	}
	return x
}
