package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"fourindex"
)

// runBench implements the `fouridx bench` subcommand: run the fixed
// benchmark matrix and write the schema-versioned JSON report, or with
// -check fail when the checked-in report differs byte-for-byte from a
// fresh run. Every field is deterministic; wall-clock numbers come from
// perfbench.
func runBench(args []string) {
	fs := flag.NewFlagSet("fouridx bench", flag.ExitOnError)
	var (
		out     = fs.String("o", "BENCH_fouridx.json", "report output path (empty = stdout summary only)")
		check   = fs.Bool("check", false, "do not write: recompute and fail if the report at -o is stale")
		verbose = fs.Bool("v", false, "print every matrix point, not just the summary")
	)
	fatalIf(fs.Parse(args))

	rep, err := fourindex.RunBench(fourindex.DefaultBenchConfig())
	fatalIf(err)

	if *verbose {
		fmt.Printf("%-9s %-18s %-22s %3s | %12s %12s %10s %8s %8s\n",
			"kind", "scheme", "point", "ov", "flops", "bytesMoved", "sim s", "attained", "exp frac")
		for _, p := range rep.Points {
			where := fmt.Sprintf("n=%d procs=%d", p.N, p.Procs)
			if p.Kind == "cost" {
				where = fmt.Sprintf("%s/%s/%d", p.Molecule, p.System, p.Procs)
			}
			ov := "off"
			if p.Overlap {
				ov = "on"
			}
			fmt.Printf("%-9s %-18s %-22s %3s | %12.4g %12.4g %10.2f %8.3f %8.3f\n",
				p.Kind, p.Scheme, where, ov,
				float64(p.Flops), float64(p.BytesMoved), p.SimSeconds, p.Attained, p.ExposedCommFraction)
		}
	}
	fmt.Printf("bench:    %d matrix points\n", len(rep.Points))

	var buf bytes.Buffer
	fatalIf(rep.Encode(&buf))
	switch {
	case *check:
		fatalIf(checkArtifact(*out, "make bench", buf.Bytes()))
		fmt.Printf("check:    %s is current\n", *out)
	case *out != "":
		fatalIf(os.WriteFile(*out, buf.Bytes(), 0o644))
		fmt.Printf("report:   %s\n", *out)
	}
}
