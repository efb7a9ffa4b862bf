package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"path/filepath"
	"time"

	"fourindex/internal/faults"
	ifx "fourindex/internal/fourindex"
	"fourindex/internal/sym"
	"fourindex/internal/trace"
)

// runJob executes one admitted job: transform under the job's context
// with its checkpoint store and progress tracer, then record the
// outcome and release the reservation. Runs on its own goroutine; the
// dispatch loop incremented s.running and s.wg before launching it.
func (s *Server) runJob(j *Job) {
	defer s.wg.Done()
	res, resumed, err := s.executeJob(j)

	s.mu.Lock()
	j.Resumed = resumed
	switch {
	case err == nil:
		j.State = StateDone
		if j.plan.chainSpec != nil {
			j.Result = &JobResult{ChainReport: j.chainReport}
		} else {
			j.Result = buildResult(res)
		}
	case errors.Is(err, ifx.ErrCanceled) && s.draining:
		// Drain interruption: the schedule stopped at a slab boundary
		// with its checkpoint on disk. The restarted server re-queues
		// and resumes this job.
		j.State = StateInterrupted
		j.Error = ""
	case errors.Is(err, ifx.ErrCanceled):
		j.State = StateCanceled
		j.Error = err.Error()
	default:
		j.State = StateFailed
		j.Error = err.Error()
	}
	s.adm.release(j.plan.reservedBytes)
	s.queue.release(j.Spec.Tenant)
	s.running--
	s.tenant(j.Spec.Tenant).finished(j.State)
	if err := s.persistLocked(); err != nil {
		// Persistence outside Drain is best-effort (a failed write
		// costs restart visibility of this one transition); the error
		// is surfaced on /healthz rather than dropped.
		s.persistErr = err
	}
	s.mu.Unlock()

	s.events.finish(j.ID)
	s.nudge()
}

// chainGridPerDecade is the frontier-curve resolution for chain jobs.
const chainGridPerDecade = 10

// executeJob builds the transform options for j and runs it. It
// returns whether the run resumed from a pre-existing checkpoint (a
// drained predecessor's work). Chain-analysis jobs instead run the
// bound engine and return the report inside a synthetic result-free
// path (see chainResult).
func (s *Server) executeJob(j *Job) (res *ifx.Result, resumed bool, err error) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	if j.Spec.DeadlineSeconds > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(j.Spec.DeadlineSeconds*float64(time.Second)))
	}
	defer cancel()
	s.mu.Lock()
	j.cancel = cancel
	s.mu.Unlock()

	if j.plan.chainSpec != nil {
		rep, err := ifx.AnalyzeChain(j.plan.chainSpec, j.plan.capacityElements, chainGridPerDecade)
		if err != nil {
			return nil, false, err
		}
		j.chainReport = rep
		return nil, false, ctx.Err()
	}

	ckpt, err := faults.NewFileCheckpoint(filepath.Join(s.cfg.StateDir, "ckpt", j.ID))
	if err != nil {
		return nil, false, err
	}
	_, resumed = ckpt.Latest(j.plan.scheme.String())

	tr := trace.New(0)
	tr.SetProgressListener(func(ev trace.ProgressEvent) {
		s.events.publish(j.ID, ev)
		if hook := s.progressHook; hook != nil {
			hook(j.ID, ev)
		}
	})

	opt := ifx.Options{
		Spec:           j.plan.spec,
		Procs:          j.plan.procs,
		Mode:           j.plan.mode,
		Run:            s.run,
		GlobalMemBytes: j.plan.reservedBytes,
		TileN:          j.plan.tileN,
		TileL:          j.plan.tileL,
		Trace:          tr,
		Faults:         &faults.Injection{Checkpoint: ckpt},
	}
	res, err = ifx.RunContext(ctx, j.plan.scheme, opt)
	return res, resumed, err
}

// buildResult converts a transform result to the wire shape,
// fingerprinting the output tensor when one exists.
func buildResult(res *ifx.Result) *JobResult {
	jr := &JobResult{
		Scheme:       res.Scheme.String(),
		ChosenScheme: res.ChosenScheme.String(),
		SimSeconds:   res.ElapsedSeconds,
		PeakBytes:    res.PeakGlobalBytes,
		CommElements: res.CommVolume,
		Flops:        res.Totals.Flops,
		Restarts:     res.Restarts,
	}
	if res.C != nil {
		jr.ChecksumSHA256, jr.FrobeniusSq = checksumC(res.C)
	}
	return jr
}

// checksumC fingerprints the packed output tensor: a SHA-256 over the
// raw float64 bit patterns in packed order (bitwise-equal tensors, and
// only those, hash equal) plus the squared Frobenius norm.
func checksumC(c *sym.PackedC) (string, float64) {
	h := sha256.New()
	var buf [8]byte
	var frob float64
	for _, v := range c.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
		frob += v * v
	}
	return hex.EncodeToString(h.Sum(nil)), frob
}
