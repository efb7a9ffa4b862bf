package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"fourindex/internal/chem"
	ifx "fourindex/internal/fourindex"
	"fourindex/internal/ga"
	"fourindex/internal/sym"
	"fourindex/internal/trace"
)

// The execute workload's pinned input: one hybrid transform in real
// arithmetic. The 32 MB cap lies between the fused peak (22.7 MB) and
// the unfused peak (39.2 MB), so the Section 7.4 driver ends on
// fullyfused-inner, the paper's contributed schedule: it tries the
// unfused schedule first, runs out of the cap in op1 and falls back.
const (
	execN        = 48
	execSym      = 1
	execProcs    = 2
	execTile     = 8
	execCapBytes = 32 << 20
	// execTol is how far C may sit from the sequential reference.
	execTol = 1e-9
	// execRing holds every event of one traced transform (about 6,100)
	// with room to spare, so trace.dropped stays 0.
	execRing = 1 << 16
)

// execState is the execute workload after set-up: the options every op
// runs with, the reference C and the warm-up op's checksum.
type execState struct {
	opt ifx.Options
	ref *sym.PackedC
	sum [sha256.Size]byte
}

func execOptions(seed uint64) (ifx.Options, error) {
	spec, err := chem.NewSpec(execN, execSym, specSeed(seed, saltExecute))
	if err != nil {
		return ifx.Options{}, err
	}
	return ifx.Options{
		Spec:           spec,
		Procs:          execProcs,
		Mode:           ga.Execute,
		GlobalMemBytes: execCapBytes,
		TileN:          execTile,
	}, nil
}

// setupExecute computes the reference C and runs the discarded warm-up
// op, returning the state and the seconds set-up took.
func setupExecute(seed uint64) (*execState, float64, error) {
	t0 := time.Now()
	opt, err := execOptions(seed)
	if err != nil {
		return nil, 0, err
	}
	st := &execState{opt: opt, ref: ifx.ReferencePacked(opt.Spec)}
	res, err := ifx.Run(ifx.Hybrid, opt)
	if err != nil {
		return nil, 0, fmt.Errorf("execute warm-up: %w", err)
	}
	if d := sym.MaxAbsDiffC(res.C, st.ref); !(d <= execTol) {
		return nil, 0, fmt.Errorf("execute warm-up: C is %g from the reference", d)
	}
	st.sum = checksum(res.C)
	return st, since(t0), nil
}

// verify checks one op's C against the reference and the warm-up op.
func (st *execState) verify(res *ifx.Result) error {
	if d := sym.MaxAbsDiffC(res.C, st.ref); !(d <= execTol) {
		return fmt.Errorf("execute: C is %g from the reference", d)
	}
	if checksum(res.C) != st.sum {
		return fmt.Errorf("execute: C is not bitwise equal to the first op's")
	}
	return nil
}

func (st *execState) pin(rep *report) {
	rep.add("input", fmt.Sprintf("hybrid n=%d s=%d procs=%d tile=%d cap=%d B spec-seed=%d, one client",
		execN, execSym, execProcs, execTile, execCapBytes, st.opt.Spec.Seed))
}

func runExecute(cfg config, rep *report) (*measured, error) {
	m := &measured{}
	var st *execState
	for i := 0; i < setupReps; i++ {
		s, sec, err := setupExecute(cfg.seed)
		if err != nil {
			return nil, err
		}
		st = s
		m.setups = append(m.setups, sec)
	}
	st.pin(rep)
	heap := startHeapSampler()
	chosen := map[string]int{}
	for m.window < cfg.seconds {
		a0 := totalAlloc()
		t0 := time.Now()
		res, err := ifx.Run(ifx.Hybrid, st.opt)
		lat := since(t0)
		m.alloc += totalAlloc() - a0
		m.lat = append(m.lat, lat)
		m.window += lat
		m.attempted++
		if err == nil {
			chosen[res.ChosenScheme.String()]++
			err = st.verify(res)
		}
		if err != nil {
			m.failed++
			rep.add("failure", err)
		}
	}
	m.peakHeap = heap.finish()
	rep.add("chosen_schemes", chosen)
	return m, nil
}

// tracedExecute alternates untraced and traced transforms for the run
// time, then adds the layer probes.
func tracedExecute(cfg config, rep *report) (*traced, error) {
	st, _, err := setupExecute(cfg.seed)
	if err != nil {
		return nil, err
	}
	st.pin(rep)
	t := &traced{}
	var pairs opPairs
	start := time.Now()
	for len(pairs.ops) == 0 || since(start) < cfg.seconds {
		t0 := time.Now()
		res, err := ifx.Run(ifx.Hybrid, st.opt)
		plain := since(t0)
		t.count(rep, err, func() error { return st.verify(res) })

		tr, rec := newTracer(execRing)
		opt := st.opt
		opt.Trace = tr
		t0 = time.Now()
		res, err = ifx.Run(ifx.Hybrid, opt)
		wall := since(t0)
		t.count(rep, err, func() error { return st.verify(res) })
		if err != nil {
			continue
		}
		l := digestTrace(tr, rec, wall)
		if l.peakBytes != res.PeakGlobalBytes {
			t.failed++
			rep.add("failure", fmt.Sprintf("traced peak %d B != result peak %d B", l.peakBytes, res.PeakGlobalBytes))
		}
		pairs.add(plain, l)
	}
	t.metrics = pairs.metrics(rep)
	if err := addProbes(t, cfg.seed, rep, true); err != nil {
		return nil, err
	}
	return t, nil
}

// checksum fingerprints C bit for bit: SHA-256 over the float64 bit
// patterns in packed order, the same digest the job server reports as
// checksumSha256.
func checksum(c *sym.PackedC) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	for _, v := range c.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// newTracer builds a tracer whose progress listener stamps wall time.
func newTracer(ring int) (*trace.Tracer, *stampRecorder) {
	tr := trace.New(ring)
	rec := newStampRecorder()
	tr.SetProgressListener(rec.listen)
	return tr, rec
}
