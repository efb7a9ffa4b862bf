package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"fourindex"
)

// runFrontier implements the `fouridx frontier` subcommand: compute the
// capacity-vs-bound frontier artifact (FRONTIER_fouridx.json), check a
// checked-in copy for staleness byte-for-byte (checkArtifact), and
// gate the frontier-driven tuner against the benchmark baseline.
func runFrontier(args []string) {
	fs := flag.NewFlagSet("fouridx frontier", flag.ExitOnError)
	var (
		out      = fs.String("o", "FRONTIER_fouridx.json", "artifact output path (empty = stdout summary only)")
		check    = fs.Bool("check", false, "do not write: recompute and fail if the artifact at -o is stale")
		gate     = fs.Bool("gate", false, "run the tuner gate against -baseline")
		baseline = fs.String("baseline", "BENCH_fouridx.json", "benchmark baseline for -gate")
		verbose  = fs.Bool("v", false, "print every schedule's knee and feasibility capacities")
	)
	fatalIf(fs.Parse(args))

	rep := fourindex.RunFrontier(nil)
	for _, pf := range rep.Problems {
		fmt.Printf("frontier: %s n=%d s=%d — %d capacities, knees at S=%d (single), %d (pair), %d (|C|)\n",
			pf.Name, pf.N, pf.Sym, len(pf.Grid),
			pf.Thresholds.SingleTight, pf.Thresholds.PairFusion, pf.Thresholds.FullReuse)
		if *verbose {
			fmt.Printf("  %-20s %-12s %16s %16s %16s\n",
				"scheme", "config", "floor (elems)", "flat at S", "feasible at S")
			for _, sf := range pf.Schedules {
				fmt.Printf("  %-20s %-12s %16d %16d %16d\n",
					sf.Scheme, sf.Config, sf.FloorElements, sf.FlatAtS, sf.FeasibleAtS)
			}
		}
	}

	var buf bytes.Buffer
	fatalIf(rep.Encode(&buf))
	switch {
	case *check:
		fatalIf(checkArtifact(*out, "make frontier", buf.Bytes()))
		fmt.Printf("check:    %s is current\n", *out)
	case *out != "":
		fatalIf(os.WriteFile(*out, buf.Bytes(), 0o644))
		fmt.Printf("artifact: %s\n", *out)
	}

	if *gate {
		f, err := os.Open(*baseline)
		fatalIf(err)
		base, err := fourindex.DecodeBenchReport(f)
		f.Close()
		fatalIf(err)
		results, violations, err := fourindex.FrontierTunerGate(base)
		fatalIf(err)
		for _, r := range results {
			fmt.Printf("gate:     %s/%s/%d baseline %s %.2fs, pick %s %.2fs (%d simulations)\n",
				r.Molecule, r.System, r.Cores, r.BaselineScheme, r.BaselineSeconds,
				r.Pick.Scheme, r.PickSeconds, r.Simulated)
		}
		if len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "fouridx frontier: tuner gate failed:\n")
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Printf("gate:     pass vs %s\n", *baseline)
	}
}
