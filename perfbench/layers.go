package main

import (
	"fmt"
	"sort"
	"strings"

	"fourindex/internal/trace"
)

// fusedPhases are the phases whose wall time the traced run reports by
// name: the fullyfused-inner slab loop (Listing 10) that every workload
// runs. Other phases (the unfused schedule's generate-A and op1..op4,
// which plan and serve also run) are listed in the report and count in
// fourindex.phase_cover_frac.
var fusedPhases = []string{"generate-A-slab", "op12-fused", "op34-fused"}

// opLayers is what one traced transform (or, on plan, one point's
// hybrid run) says about the layers beneath it.
type opLayers struct {
	wall   float64 // op wall seconds, traced
	phases phaseWall
	// contractionFlops are the flops charged in phases other than
	// integral generation; integrals are the elements written into A
	// tensors, one ComputeA call each.
	contractionFlops int64
	integrals        int64
	// comm, intra and messages sum the schedule root spans' deltas.
	comm, intra, messages int64
	// peakBytes is the high-water aggregate footprint, replayed from
	// the Create and Destroy events of each runtime.
	peakBytes                  int64
	gets, puts, accs, barriers int64
	dropped                    int64
}

// digestTrace reads one traced op's spans, events and phase stamps.
func digestTrace(tr *trace.Tracer, rec *stampRecorder, wall float64) opLayers {
	l := opLayers{wall: wall, phases: pairSpans(rec.events()), dropped: tr.Dropped()}
	for _, sp := range tr.Spans() {
		if !sp.Done {
			continue
		}
		switch sp.Depth {
		case 0:
			l.comm += sp.Totals.CommElements
			l.intra += sp.Totals.IntraElements
			l.messages += sp.Totals.Messages
		case 1:
			if !strings.HasPrefix(sp.Name, "generate") {
				l.contractionFlops += sp.Totals.Flops
			}
		}
	}
	live := map[int32]int64{}
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindGet, trace.KindNbGet:
			l.gets++
		case trace.KindPut, trace.KindNbPut:
			l.puts++
			if ev.Name == "A" || ev.Name == "Al" {
				l.integrals += ev.Elems
			}
		case trace.KindAcc, trace.KindNbAcc:
			l.accs++
		case trace.KindBarrier:
			l.barriers++
		case trace.KindCreate:
			live[ev.Run] += ev.Elems
			l.peakBytes = max(l.peakBytes, 8*live[ev.Run])
		case trace.KindDestroy:
			live[ev.Run] -= ev.Elems
		}
	}
	return l
}

// opPairs collects a traced run's ops, each traced op paired with an
// untraced run of the same op for the tracing overhead.
type opPairs struct {
	plain float64 // summed untraced wall seconds
	ops   []opLayers
}

func (p *opPairs) add(plain float64, l opLayers) {
	p.plain += plain
	p.ops = append(p.ops, l)
}

// metrics averages the per-op layer figures over the traced ops. Every
// workload traces whole passes of its op sequence, so the averaged
// counts repeat exactly from run to run.
func (p *opPairs) metrics(rep *report) map[string]metric {
	n := float64(len(p.ops))
	var sum opLayers
	var phaseSum float64
	phases := map[string]float64{}
	for _, l := range p.ops {
		sum.wall += l.wall
		sum.contractionFlops += l.contractionFlops
		sum.integrals += l.integrals
		sum.comm += l.comm
		sum.intra += l.intra
		sum.messages += l.messages
		sum.peakBytes += l.peakBytes
		sum.gets += l.gets
		sum.puts += l.puts
		sum.accs += l.accs
		sum.barriers += l.barriers
		sum.dropped += l.dropped
		sum.phases.Root += l.phases.Root
		sum.phases.Roots += l.phases.Roots
		sum.phases.Unmatched += l.phases.Unmatched
		for k, v := range l.phases.Phase {
			phases[k] += v
		}
		phaseSum += l.phases.phaseSum()
	}
	names := make([]string, 0, len(phases))
	for k := range phases {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		rep.add("phase "+k, fmt.Sprintf("%.6f s per op", phases[k]/n))
	}
	rep.add("traced_ops", len(p.ops))
	rep.add("root_spans", fmt.Sprintf("%d, %.6f s per op, phases cover %.4f of root time", sum.phases.Roots, sum.phases.Root/n, phaseSum/sum.phases.Root))
	rep.add("unmatched_span_events", sum.phases.Unmatched)
	out := map[string]metric{
		"blas.flops":                   {float64(sum.contractionFlops) / n, "count"},
		"chem.integrals":               {float64(sum.integrals) / n, "count"},
		"ga.comm_elements":             {float64(sum.comm) / n, "count"},
		"ga.intra_elements":            {float64(sum.intra) / n, "count"},
		"ga.messages":                  {float64(sum.messages) / n, "count"},
		"ga.peak_global_bytes":         {float64(sum.peakBytes) / n, "bytes"},
		"ga.get_ops":                   {float64(sum.gets) / n, "count"},
		"ga.put_ops":                   {float64(sum.puts) / n, "count"},
		"ga.acc_ops":                   {float64(sum.accs) / n, "count"},
		"ga.barriers":                  {float64(sum.barriers) / n, "count"},
		"fourindex.phase_cover_frac":   {phaseSum / sum.wall, "ratio"},
		"fourindex.sim_ns_per_message": {1e9 * sum.phases.Root / float64(max(sum.messages, 1)), "ns"},
		"trace.overhead_frac":          {sum.wall/p.plain - 1, "ratio"},
		"trace.dropped":                {float64(sum.dropped), "count"},
	}
	for _, ph := range fusedPhases {
		out["fourindex.phase."+ph+"_s"] = metric{phases[ph] / n, "s"}
	}
	return out
}

// count tallies one op of a traced run: err is the op's own error and
// verify, when not nil, checks its output when it succeeded.
func (t *traced) count(rep *report, err error, verify func() error) {
	t.attempted++
	if err == nil && verify != nil {
		err = verify()
	}
	if err != nil {
		t.failed++
		rep.add("failure", err)
	}
}
