package main

import (
	"flag"
	"fmt"
	"os"

	"fourindex"
	"fourindex/internal/units"
)

// runChaos implements the `fouridx chaos` subcommand: run one transform
// under a seeded random fault plan with checkpoint-restart enabled,
// report the retries, restarts and degradation decisions the run took,
// and (in execute mode) verify the result against a fault-free run of
// the same configuration.
func runChaos(args []string) {
	fs := flag.NewFlagSet("fouridx chaos", flag.ExitOnError)
	var (
		n        = fs.Int("n", 16, "orbital count")
		scheme   = fs.String("scheme", "hybrid", "schedule: unfused | fused12-34 | recompute | fullyfused | fullyfused-inner | hybrid | nwchem-fused12-34 | fused123-4")
		procs    = fs.Int("procs", 4, "parallel processes (overridden by -cores)")
		spatial  = fs.Int("s", 1, "spatial symmetry order (power of two)")
		seed     = fs.Uint64("seed", 42, "integral generator seed")
		chaosSd  = fs.Uint64("chaos-seed", 1, "fault-plan seed (also decides whether a crash is injected)")
		rate     = fs.Float64("rate", 0.05, "transient fault probability per Get/Put/Acc")
		restarts = fs.Int("restarts", 0, "crash-restart budget (0 = default 4)")
		tileN    = fs.Int("tile", 0, "orbital data-tile width (0 = auto)")
		tileL    = fs.Int("tilel", 0, "fused-loop tile width (0 = auto)")
		cost     = fs.Bool("cost", false, "cost-simulation mode (no arithmetic, no result verification)")
		system   = fs.String("system", "", "cluster model A | B | C (enables simulated timing)")
		cores    = fs.Int("cores", 0, "cores on the cluster model (with -system)")
		rpn      = fs.Int("ranks-per-node", 0, "ranks per node (0 = one per core)")
		mem      = fs.String("mem", "", "aggregate memory cap, e.g. 512MB, 9TB (empty = unlimited)")
		overlap  = fs.Bool("overlap", false, "nonblocking communication: faults on nonblocking ops surface at the matching wait")
	)
	fatalIf(fs.Parse(args))

	sch, err := fourindex.SchemeByName(*scheme)
	fatalIf(err)
	spec, err := fourindex.NewSpec(*n, *spatial, *seed)
	fatalIf(err)

	opt := fourindex.Options{
		Spec:    spec,
		Procs:   *procs,
		TileN:   *tileN,
		TileL:   *tileL,
		Overlap: *overlap,
	}
	if *cost {
		opt.Mode = fourindex.ModeCost
	} else {
		opt.Mode = fourindex.ModeExecute
	}
	if *mem != "" {
		b, err := units.ParseBytes(*mem)
		fatalIf(err)
		opt.GlobalMemBytes = b
	}
	if *system != "" {
		m, err := fourindex.MachineByName(*system)
		fatalIf(err)
		c := *cores
		if c == 0 {
			c = *procs
		}
		run, err := m.Configure(c, *rpn)
		fatalIf(err)
		opt.Run = &run
		opt.Procs = c
		fmt.Printf("machine:  %s\n", run)
	}

	plan := fourindex.RandomFaultPlan(*chaosSd, *rate, opt.Procs)
	tr := fourindex.NewTracer(0)
	faulty := opt
	faulty.Trace = tr
	faulty.Faults = &fourindex.FaultInjection{
		Plan:        plan,
		Checkpoint:  fourindex.NewMemCheckpoint(),
		MaxRestarts: *restarts,
	}

	fmt.Printf("plan:     seed %d, transient rate %g", *chaosSd, *rate)
	if plan.Crash != nil {
		fmt.Printf(", crash at (run %d, proc %d, op %d)", plan.Crash.Run, plan.Crash.Proc, plan.Crash.Seq)
	}
	fmt.Println()

	res, err := fourindex.Transform(sch, faulty)
	if err != nil {
		kind := "schedule error"
		if fourindex.FaultInjected(err) {
			kind = "typed terminal fault (correctness preserved: no result produced)"
		}
		fmt.Printf("outcome:  failed — %s\n", kind)
		fmt.Printf("error:    %v\n", err)
		fatalIf(fourindex.WriteFaultSummary(os.Stdout, fourindex.TraceFaultSummary(tr)))
		os.Exit(1)
	}

	fmt.Printf("outcome:  completed, scheme %v", res.Scheme)
	if res.ChosenScheme != res.Scheme {
		fmt.Printf(" (chose %v)", res.ChosenScheme)
	}
	fmt.Println()
	if res.ElapsedSeconds > 0 {
		fmt.Printf("sim time: %.1f s\n", res.ElapsedSeconds)
	}
	fmt.Printf("rebuilds: %d runtime rebuilds after injected crashes\n", res.Restarts)
	fatalIf(fourindex.WriteFaultSummary(os.Stdout, fourindex.TraceFaultSummary(tr)))

	if !*cost {
		clean, err := fourindex.Transform(sch, opt)
		fatalIf(err)
		got, want := res.C.Data(), clean.C.Data()
		if len(got) != len(want) {
			fatalIf(fmt.Errorf("chaos result has %d elements, fault-free has %d", len(got), len(want)))
		}
		for i := range got {
			if got[i] != want[i] {
				fatalIf(fmt.Errorf("chaos result diverges from fault-free run at element %d: %v != %v", i, got[i], want[i]))
			}
		}
		fmt.Printf("verify:   C bitwise identical to the fault-free run (%d elements)\n", len(got))
	}
}
