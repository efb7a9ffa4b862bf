// Package perf is the deterministic benchmark harness: it runs a fixed
// matrix of {schedule} x {execute-mode sizes, cost-mode molecules},
// records the data-movement accounting every run produces (flops,
// elements moved, messages, peak memory, simulated seconds, bound
// attainment from the trace audit) and emits a schema-versioned JSON
// report (BENCH_fouridx.json at the repo root).
//
// Every field is a function of the program's parameters, identical on
// every machine and every run (the cost/execute equivalence the
// runtime's counters guarantee), so the report is byte-stable and the
// checked-in artifact is pinned byte-for-byte by `fouridx bench -check`.
// Wall-clock evidence lives in the perfbench benchmark, not here; perf
// reads no clock.
package perf

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"fourindex/internal/chem"
	"fourindex/internal/experiments"
	"fourindex/internal/fourindex"
	"fourindex/internal/ga"
	"fourindex/internal/trace"
)

// SchemaVersion is bumped whenever the JSON report shape changes
// incompatibly; TunerGate refuses a baseline of another version.
// Version 2 added the overlap axis (each matrix cell runs with the
// nonblocking communication path off and on) and the exposed-comm
// fraction. Version 3 added an opt-in GEMM-kernel axis on execute
// points and its crossover-calibration block; version 4 removed both
// again. Version 5 removed the wall-clock layer (measured fields, the
// read-path and transposed-B GEMM blocks), the GOMAXPROCS axis and the
// execute-mode overlap-on points, whose accounting equals overlap off.
const SchemaVersion = 5

// benchSeed fixes the integral-generator seed for every benchmark run.
const benchSeed = 7

// ExecutePoint is one execute-mode problem size in the matrix.
type ExecutePoint struct {
	// N is the orbital count (real arithmetic, so kept small).
	N int
	// Procs is the number of GA processes.
	Procs int
}

// CostPoint is one cost-mode molecule/machine point in the matrix.
type CostPoint struct {
	// Molecule names a benchmark molecule (chem.Catalog).
	Molecule string
	// System is the cluster model ("A", "B" or "C").
	System string
	// Cores is the simulated core count.
	Cores int
}

// Config selects the benchmark matrix. Execute points run with the
// nonblocking path off: overlap changes no execute-mode counter (the
// fourindex overlap tests pin that, along with bitwise C). Cost points
// run with it off and on, because the simulated seconds and the
// exposed-comm fraction differ.
type Config struct {
	// Schemes to run at every execute point. Empty selects all eight.
	Schemes []fourindex.Scheme
	// CostSchemes to run at every cost point. Empty selects all but
	// Recompute, whose element-level n^6 loops are prohibitive at
	// molecule scale (the same exclusion Figure 2 makes).
	CostSchemes []fourindex.Scheme
	// ExecutePoints are the execute-mode sizes.
	ExecutePoints []ExecutePoint
	// CostPoints are the cost-mode molecule points.
	CostPoints []CostPoint
}

// DefaultConfig is the full checked-in matrix behind BENCH_fouridx.json.
func DefaultConfig() Config {
	return Config{
		ExecutePoints: []ExecutePoint{{N: 16, Procs: 2}, {N: 24, Procs: 4}, {N: 24, Procs: 8}},
		CostPoints: []CostPoint{
			{Molecule: "Hyperpolar", System: "A", Cores: 32},
			{Molecule: "Hyperpolar", System: "B", Cores: 140},
			{Molecule: "C60H20", System: "B", Cores: 140},
		},
	}
}

// Point is one completed cell of the benchmark matrix.
type Point struct {
	// Kind is "execute" or "cost".
	Kind string `json:"kind"`
	// Scheme is the schedule name (fourindex.Scheme.String).
	Scheme string `json:"scheme"`
	// N is the orbital count (execute points).
	N int `json:"n,omitempty"`
	// Molecule and System identify a cost point.
	Molecule string `json:"molecule,omitempty"`
	System   string `json:"system,omitempty"`
	// Procs is the GA process count (simulated cores for cost points).
	Procs int `json:"procs"`
	// Overlap reports whether the point ran with the nonblocking
	// communication path (Options.Overlap; cost points only).
	Overlap bool `json:"overlap,omitempty"`

	// Deterministic accounting, identical across machines and runs.
	Flops           int64   `json:"flops"`
	CommElements    int64   `json:"commElements"`
	IntraElements   int64   `json:"intraElements"`
	DiskElements    int64   `json:"diskElements"`
	Messages        int64   `json:"messages"`
	PeakGlobalBytes int64   `json:"peakGlobalBytes"`
	BytesMoved      int64   `json:"bytesMoved"`
	SimSeconds      float64 `json:"simSeconds,omitempty"`
	// ExposedCommFraction is exposed transfer time over total transfer
	// time (cost points with a machine model; 1 with Overlap off, lower
	// as the nonblocking verbs hide transfers behind compute). Gated
	// deterministically: a drift means the overlap pipeline changed.
	ExposedCommFraction float64 `json:"exposedCommFraction,omitempty"`
	// Attained is the aggregate bound-vs-actual fraction from the trace
	// audit (sum of per-phase lower bounds over actual elements moved,
	// memory-independent floor), 0 when no phase was auditable.
	Attained float64 `json:"attained,omitempty"`
}

// Report is the schema-versioned benchmark output.
type Report struct {
	SchemaVersion int     `json:"schemaVersion"`
	Points        []Point `json:"points"`
}

// Encode writes the report as indented JSON. encoding/json emits struct
// fields in declaration order, so equal reports encode byte-identically
// (the property the determinism and golden tests and `fouridx bench
// -check` pin).
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Decode reads a report written by Encode.
func Decode(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("perf: decoding report: %w", err)
	}
	return &r, nil
}

// withDefaults fills the config's empty fields.
func (c Config) withDefaults() Config {
	if len(c.Schemes) == 0 {
		c.Schemes = []fourindex.Scheme{
			fourindex.Unfused, fourindex.Fused1234Pair, fourindex.Recompute,
			fourindex.FullyFused, fourindex.FullyFusedInner, fourindex.Hybrid,
			fourindex.NWChemFused, fourindex.Fused123,
		}
	}
	if len(c.CostSchemes) == 0 {
		for _, s := range c.Schemes {
			if s != fourindex.Recompute {
				c.CostSchemes = append(c.CostSchemes, s)
			}
		}
	}
	return c
}

// Run executes the benchmark matrix and returns the report. The matrix
// order is fixed (point, then scheme, then overlap; cost points after
// execute points) so reports are comparable line by line. Run never
// cancels; RunContext adds cooperative cancellation.
func Run(cfg Config) (*Report, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: ctx is polled before
// every matrix point (and each point's transform polls at its own slab
// boundaries), returning an error wrapping fourindex.ErrCanceled —
// never a partial report — once ctx is done.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{SchemaVersion: SchemaVersion}

	for _, ep := range cfg.ExecutePoints {
		for _, s := range cfg.Schemes {
			pt, err := runExecutePoint(ctx, s, ep)
			if err != nil {
				return nil, err
			}
			rep.Points = append(rep.Points, pt)
		}
	}

	for _, cp := range cfg.CostPoints {
		for _, s := range cfg.CostSchemes {
			for _, ov := range []bool{false, true} {
				pt, err := runCostPoint(ctx, s, cp, ov)
				if err != nil {
					return nil, err
				}
				rep.Points = append(rep.Points, pt)
			}
		}
	}
	return rep, nil
}

// executeOptions builds the Options one execute point runs with.
func executeOptions(ep ExecutePoint) (fourindex.Options, error) {
	spec, err := chem.NewSpec(ep.N, 1, benchSeed)
	if err != nil {
		return fourindex.Options{}, err
	}
	return fourindex.Options{Spec: spec, Procs: ep.Procs, Mode: ga.Execute}, nil
}

func runExecutePoint(ctx context.Context, s fourindex.Scheme, ep ExecutePoint) (Point, error) {
	opt, err := executeOptions(ep)
	if err != nil {
		return Point{}, err
	}
	pt := Point{Kind: "execute", Scheme: s.String(), N: ep.N, Procs: ep.Procs}
	if err := fillPoint(ctx, &pt, s, opt, ep.N, 1); err != nil {
		if errors.Is(err, fourindex.ErrCanceled) {
			return Point{}, err
		}
		return Point{}, fmt.Errorf("perf: execute %s n=%d procs=%d: %w", s, ep.N, ep.Procs, err)
	}
	return pt, nil
}

func runCostPoint(ctx context.Context, s fourindex.Scheme, cp CostPoint, overlap bool) (Point, error) {
	opt, err := experiments.BenchOptions(cp.Molecule, cp.System, cp.Cores)
	if err != nil {
		return Point{}, err
	}
	opt.Overlap = overlap
	pt := Point{Kind: "cost", Scheme: s.String(), Molecule: cp.Molecule, System: cp.System, Procs: cp.Cores, Overlap: overlap}
	if err := fillPoint(ctx, &pt, s, opt, opt.Spec.N, experiments.SpatialSymmetry); err != nil {
		if errors.Is(err, fourindex.ErrCanceled) {
			return Point{}, err
		}
		return Point{}, fmt.Errorf("perf: cost %s %s/%s/%d: %w", s, cp.Molecule, cp.System, cp.Cores, err)
	}
	return pt, nil
}

// fillPoint runs one traced pass and records its accounting and
// bound attainment in pt.
func fillPoint(ctx context.Context, pt *Point, s fourindex.Scheme, opt fourindex.Options, n, symFactor int) error {
	tr := trace.New(0)
	opt.Trace = tr
	res, err := fourindex.RunContext(ctx, s, opt)
	if err != nil {
		return err
	}
	pt.Flops = res.Totals.Flops
	pt.CommElements = res.CommVolume
	pt.IntraElements = res.IntraVolume
	pt.DiskElements = res.DiskVolume
	pt.Messages = res.Totals.CommMessages
	pt.PeakGlobalBytes = res.PeakGlobalBytes
	pt.BytesMoved = 8 * (res.CommVolume + res.IntraVolume + res.DiskVolume)
	pt.SimSeconds = res.ElapsedSeconds
	if total := res.ExposedCommSeconds + res.OverlapCommSeconds; total > 0 {
		pt.ExposedCommFraction = res.ExposedCommSeconds / total
	}
	pt.Attained = aggregateAttained(tr.Audit(n, symFactor, 0))
	return nil
}

// aggregateAttained collapses the per-phase audit into one fraction:
// total lower-bound elements over total actual elements moved.
func aggregateAttained(rows []trace.AuditRow) float64 {
	var bound, actual float64
	for _, r := range rows {
		if r.ActualElems > 0 {
			bound += r.BoundElems
			actual += float64(r.ActualElems)
		}
	}
	if actual == 0 {
		return 0
	}
	return bound / actual
}
