package serve

import (
	"context"
	"fmt"
	"sync"

	"fourindex/internal/chem"
	ifx "fourindex/internal/fourindex"
	"fourindex/internal/ga"
	"fourindex/internal/lb"
	"fourindex/internal/lb/chain"
	"fourindex/internal/sym"
)

// ModeledPeakBytes prices scheme at extent n, symmetry s and fused
// tile width tileL using the paper's memory models (Section 2/7): the
// peak live elements converted to bytes. The closed forms assume ideal
// tilings, so real runs land within a small factor of them (tile
// rounding, per-slab intermediates); admission therefore uses them as
// the analytic cross-check and fast-reject, while the binding
// reservation comes from an exact cost-mode dry run (see planJob).
// Hybrid is priced via lb.Advise at the given budget — what the driver
// would actually pick.
func ModeledPeakBytes(scheme ifx.Scheme, n, s, tileL int, budget int64) (int64, error) {
	if tileL <= 0 || tileL > n {
		tileL = max(1, min(tileL, n))
	}
	var words int64
	switch scheme {
	case ifx.Unfused:
		words = lb.MemoryUnfused(n, s)
	case ifx.Fused1234Pair, ifx.NWChemFused:
		words = lb.MemoryFused12_34(n, s)
	case ifx.FullyFused:
		words = lb.MemoryFused1234(n, s, tileL)
	case ifx.FullyFusedInner:
		words = lb.MemoryFused1234Inner(n, s, tileL)
	case ifx.Fused123:
		words = lb.MemoryFused123(n, s, tileL)
	case ifx.Recompute:
		// Listing 3 keeps only the output resident and regenerates
		// everything else per slab: |C| plus an n^2 coefficient panel.
		words = sym.ExactSizes(n, s).C + int64(n)*int64(n)
	case ifx.Hybrid:
		adv := lb.Advise(n, s, budget)
		if adv.Scheme == "infeasible" {
			return 0, fmt.Errorf("serve: hybrid is infeasible at this budget: %s", adv.Reason)
		}
		return adv.MemoryBytes, nil
	default:
		return 0, fmt.Errorf("serve: no memory model for scheme %v", scheme)
	}
	return words * 8, nil
}

// fusionConfigOf maps a schedule to the fusion configuration whose
// ConfigMinMemory is its feasibility floor.
func fusionConfigOf(scheme ifx.Scheme) lb.FusionConfig {
	switch scheme {
	case ifx.Unfused:
		return lb.FusionConfig{Groups: [][]int{{1}, {2}, {3}, {4}}}
	case ifx.Fused1234Pair, ifx.NWChemFused:
		return lb.FusionConfig{Groups: [][]int{{1, 2}, {3, 4}}}
	case ifx.Fused123:
		return lb.FusionConfig{Groups: [][]int{{1, 2, 3}, {4}}}
	default:
		// FullyFused, FullyFusedInner, Recompute — and Hybrid, whose
		// floor is the minimum over configurations (the fully fused
		// one), matching whatever Advise picks at a tight budget.
		return lb.FusionConfig{Groups: [][]int{{1, 2, 3, 4}}}
	}
}

// planJob resolves a normalized JobSpec into a concrete schedule,
// tiling and admission reservation. ctx bounds the "auto" frontier
// tune; ctx.Err() is surfaced, never swallowed. Jobs whose reservation
// exceeds the whole budget fail with ErrOverBudget.
func (s *Server) planJob(ctx context.Context, sp JobSpec) (jobPlan, error) {
	if sp.Chain != nil {
		return s.planChainJob(sp)
	}
	spec, err := chemSpec(sp)
	if err != nil {
		return jobPlan{}, err
	}
	p := jobPlan{spec: spec, procs: sp.Procs}
	if p.procs <= 0 {
		p.procs = s.cfg.Procs
	}
	if sp.Mode == "cost" {
		p.mode = ga.Cost
	} else {
		p.mode = ga.Execute
	}
	p.tileN = sp.TileN
	if p.tileN <= 0 {
		div := 6
		if p.mode == ga.Cost && spec.N >= 240 {
			div = 24
		}
		p.tileN = max(1, spec.N/div)
	}
	p.tileN = min(p.tileN, spec.N)
	p.tileL = sp.TileL
	if p.tileL <= 0 {
		p.tileL = p.tileN
	}
	p.tileL = min(p.tileL, spec.N)

	if sp.Scheme == "auto" {
		scheme, tileN, tileL, err := s.autoPlan(ctx, p)
		if err != nil {
			return jobPlan{}, err
		}
		p.scheme, p.tileN, p.tileL = scheme, tileN, tileL
	} else {
		p.scheme, err = ifx.SchemeByName(sp.Scheme)
		if err != nil {
			return jobPlan{}, fmt.Errorf("serve: %w", err)
		}
	}

	// Fast reject on the analytic floor: ConfigMinMemory is the least
	// memory the scheme's fusion configuration can run in under any
	// tiling, so a budget below it can never admit this job.
	p.minBytes = lb.ConfigMinMemory(fusionConfigOf(p.scheme), spec.N, spec.S) * 8
	if p.minBytes > s.cfg.MemBudgetBytes {
		return jobPlan{}, fmt.Errorf("%w: %s needs at least %d bytes (ConfigMinMemory), budget is %d",
			ErrOverBudget, p.scheme, p.minBytes, s.cfg.MemBudgetBytes)
	}

	// Binding reservation: a cost-mode dry run of the exact schedule.
	// The simulator performs the same allocation sequence as execution
	// (GA accounting is mode-independent), so its peak is the job's
	// peak, not a model of it — admitted under this reservation, the
	// run cannot trip its own GlobalMemBytes cap.
	peak, err := s.dryRunPeakBytes(ctx, p)
	if err != nil {
		return jobPlan{}, err
	}
	p.reservedBytes = max(peak, p.minBytes)
	if p.reservedBytes > s.cfg.MemBudgetBytes {
		return jobPlan{}, fmt.Errorf("%w: %s at tileN=%d tileL=%d peaks at %d bytes, budget is %d",
			ErrOverBudget, p.scheme, p.tileN, p.tileL, p.reservedBytes, s.cfg.MemBudgetBytes)
	}
	return p, nil
}

// planChainJob prices a chain-analysis job by its derived bounds: the
// engine's minimum-memory floor over all fusion configurations — the
// least fast memory any schedule shape needs for this chain — becomes
// the admission reservation, exactly as ConfigMinMemory does for the
// built-in transform. Engine errors are typed and surface as 422s.
func (s *Server) planChainJob(sp JobSpec) (jobPlan, error) {
	p := jobPlan{chainSpec: sp.Chain, mode: ga.Cost, capacityElements: sp.CapacityElements}
	if p.capacityElements == 0 {
		p.capacityElements = s.cfg.MemBudgetBytes / 8
	}
	ranked, err := sp.Chain.RankConfigs()
	if err != nil {
		return jobPlan{}, fmt.Errorf("serve: price chain %s: %w", sp.Chain.Name, err)
	}
	minElems := ranked[0].MinMemory
	for _, rc := range ranked {
		if rc.MinMemory < minElems {
			minElems = rc.MinMemory
		}
	}
	// The floor can sit near MaxInt64 for saturating chains; an
	// overflowing byte conversion is by definition over any budget.
	minBytes, err := chain.MulInt64(minElems, 8)
	if err != nil {
		return jobPlan{}, fmt.Errorf("%w: chain %s: minimum-memory floor %d elements overflows the byte ledger",
			ErrOverBudget, sp.Chain.Name, minElems)
	}
	p.minBytes = minBytes
	p.reservedBytes = p.minBytes
	if p.reservedBytes > s.cfg.MemBudgetBytes {
		return jobPlan{}, fmt.Errorf("%w: chain %s needs at least %d bytes (derived minimum-memory floor), budget is %d",
			ErrOverBudget, sp.Chain.Name, p.reservedBytes, s.cfg.MemBudgetBytes)
	}
	return p, nil
}

// dryRunPeakBytes simulates p's schedule in cost mode with no memory
// cap and returns the peak aggregate footprint it reached. Hybrid gets
// the whole server budget to advise against — the most any single job
// could be granted. ctx bounds the simulation.
func (s *Server) dryRunPeakBytes(ctx context.Context, p jobPlan) (int64, error) {
	opt := ifx.Options{
		Spec:  p.spec,
		Procs: p.procs,
		Mode:  ga.Cost,
		Run:   s.run,
		TileN: p.tileN,
		TileL: p.tileL,
	}
	if p.scheme == ifx.Hybrid {
		opt.GlobalMemBytes = s.cfg.MemBudgetBytes
	}
	res, err := ifx.RunContext(ctx, p.scheme, opt)
	if err != nil {
		return 0, fmt.Errorf("serve: price %s: %w", p.scheme, err)
	}
	return res.PeakGlobalBytes, nil
}

// autoPlan resolves scheme "auto" with the frontier-driven tuner: the
// capacity analysed is the server budget, so the pick is a schedule
// the server can actually admit.
func (s *Server) autoPlan(ctx context.Context, p jobPlan) (ifx.Scheme, int, int, error) {
	opt := ifx.Options{
		Spec:           p.spec,
		Procs:          p.procs,
		Run:            s.run,
		GlobalMemBytes: s.cfg.MemBudgetBytes,
	}
	ft, err := ifx.TuneFrontierContext(ctx, opt, autoTuneSpace(p.spec.N, p.tileN), 0)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("serve: auto plan: %w", err)
	}
	pick := ft.Pick
	tileL := pick.TileL
	if tileL <= 0 {
		tileL = pick.TileN
	}
	return pick.Scheme, pick.TileN, tileL, nil
}

// autoTuneSpace is the lean sweep behind scheme "auto": the planner's
// tile heuristic and a 2x coarser alternative, both parallelisation
// settings — small enough to stay interactive at submit time.
func autoTuneSpace(n, tileN int) ifx.TuneSpace {
	tiles := []int{tileN}
	if 2*tileN <= n {
		tiles = append(tiles, 2*tileN)
	}
	return ifx.TuneSpace{
		TileNs:    tiles,
		TileLs:    tiles,
		AlphaPars: []int{1, 2},
		LPars:     []int{1},
	}
}

// chemSpec builds the chem.Spec for a normalized JobSpec.
func chemSpec(sp JobSpec) (chem.Spec, error) {
	return chem.NewSpec(sp.N, sp.Sym, sp.Seed)
}

// admission is the server-wide memory-reservation ledger. Its single
// invariant — reserved never exceeds budget — is what makes "the sum
// of admitted jobs' modeled peaks stays within capacity" true, and the
// property test in admission_test.go hammers exactly this type.
type admission struct {
	mu       sync.Mutex
	budget   int64
	reserved int64
}

// tryReserve atomically reserves b bytes if they fit, reporting
// success. b must be positive.
func (a *admission) tryReserve(b int64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if b <= 0 || b > a.budget-a.reserved {
		return false
	}
	a.reserved += b
	return true
}

// release returns b bytes to the budget.
func (a *admission) release(b int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reserved -= b
	if a.reserved < 0 {
		// A release without a matching reserve is a server bug; clamp
		// so the ledger never reports phantom capacity beyond budget.
		a.reserved = 0
	}
}

// usage returns the current (budget, reserved) pair.
func (a *admission) usage() (budget, reserved int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budget, a.reserved
}
