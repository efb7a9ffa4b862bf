package main

import (
	"flag"
	"fmt"
	"os"

	"fourindex"
	"fourindex/internal/units"
)

// runTrace implements the `fouridx trace` subcommand: run one transform
// with the execution tracer attached, write the Chrome trace_event JSON
// (loadable in chrome://tracing or https://ui.perfetto.dev) to the
// output path, and print the per-phase bound-vs-actual audit table.
func runTrace(args []string) {
	fs := flag.NewFlagSet("fouridx trace", flag.ExitOnError)
	var (
		n        = fs.Int("n", 16, "orbital count (ignored when -molecule is set)")
		molecule = fs.String("molecule", "", "benchmark molecule (Hyperpolar, C60H20, Uracil, C40H56, Shell-Mixed)")
		scheme   = fs.String("scheme", "hybrid", "schedule: unfused | fused12-34 | recompute | fullyfused | fullyfused-inner | hybrid | nwchem-fused12-34 | fused123-4")
		procs    = fs.Int("procs", 4, "parallel processes (overridden by -cores)")
		spatial  = fs.Int("s", 1, "spatial symmetry order (power of two)")
		seed     = fs.Uint64("seed", 42, "integral generator seed")
		tileN    = fs.Int("tile", 0, "orbital data-tile width (0 = auto)")
		tileL    = fs.Int("tilel", 0, "fused-loop tile width (0 = auto)")
		alphaPar = fs.Int("alphapar", 1, "alpha-parallelisation factor (Section 7.3)")
		cost     = fs.Bool("cost", false, "cost-simulation mode (no arithmetic; required for large n)")
		system   = fs.String("system", "", "cluster model A | B | C (enables simulated timing)")
		cores    = fs.Int("cores", 0, "cores on the cluster model (with -system)")
		rpn      = fs.Int("ranks-per-node", 0, "ranks per node (0 = one per core)")
		mem      = fs.String("mem", "", "aggregate memory cap, e.g. 512MB, 9TB (empty = unlimited)")
		overlap  = fs.Bool("overlap", false, "nonblocking communication: double-buffer gets and pipeline writes so transfers overlap compute")
		ovEff    = fs.Float64("overlap-eff", 0, "fraction of in-flight transfer time the cost model may hide, in (0, 1] (0 = 1, full overlap)")
		events   = fs.Int("events", 0, "event ring capacity (0 = default 32768)")
		out      = fs.String("o", "trace.json", "Chrome trace_event JSON output path")
		profiles = profileFlags(fs)
	)
	fatalIf(fs.Parse(args))
	stopProfiles, err := profiles()
	fatalIf(err)
	defer func() { fatalIf(stopProfiles()) }()

	sch, err := fourindex.SchemeByName(*scheme)
	fatalIf(err)

	orbitals := *n
	if *molecule != "" {
		m, err := fourindex.MoleculeByName(*molecule)
		fatalIf(err)
		orbitals = m.Orbitals
		if !*cost {
			fmt.Fprintf(os.Stderr, "note: %s has %d orbitals; forcing -cost mode\n", m.Name, orbitals)
			*cost = true
		}
	}
	spec, err := fourindex.NewSpec(orbitals, *spatial, *seed)
	fatalIf(err)

	tr := fourindex.NewTracer(*events)
	opt := fourindex.Options{
		Spec:              spec,
		Procs:             *procs,
		TileN:             *tileN,
		TileL:             *tileL,
		AlphaPar:          *alphaPar,
		Overlap:           *overlap,
		OverlapEfficiency: *ovEff,
		Trace:             tr,
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

	res, err := fourindex.Transform(sch, opt)
	fatalIf(err)

	f, err := os.Create(*out)
	fatalIf(err)
	err = tr.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	fatalIf(err)

	fmt.Printf("scheme:   %v", res.Scheme)
	if res.ChosenScheme != res.Scheme {
		fmt.Printf(" (chose %v)", res.ChosenScheme)
	}
	fmt.Println()
	fmt.Printf("trace:    %s (%d spans, %d events kept, %d overwritten)\n",
		*out, len(tr.Spans()), len(tr.Events()), tr.Dropped())
	if res.ElapsedSeconds > 0 {
		fmt.Printf("sim time: %.1f s\n", res.ElapsedSeconds)
	}
	if total := res.ExposedCommSeconds + res.OverlapCommSeconds; *overlap && total > 0 {
		fmt.Printf("overlap:  %.1f s transfer hidden, %.1f s exposed (%.0f%% exposed)\n",
			res.OverlapCommSeconds, res.ExposedCommSeconds, 100*res.ExposedCommSeconds/total)
	}

	// Per-process fast memory for the contraction bounds: an explicit
	// local cap wins; otherwise an even share of the aggregate cap;
	// otherwise 0, which selects the memory-independent |in|+|out| floor.
	var fastWords int64
	switch {
	case opt.LocalMemBytes > 0:
		fastWords = opt.LocalMemBytes / 8
	case opt.GlobalMemBytes > 0:
		fastWords = opt.GlobalMemBytes / 8 / int64(opt.Procs)
	}
	fmt.Println()
	fmt.Println("bound-vs-actual audit (elements; attained = lb / actual):")
	fatalIf(fourindex.WriteTraceAuditTable(os.Stdout, tr.Audit(orbitals, *spatial, fastWords)))
}
