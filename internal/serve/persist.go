package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"fourindex/internal/chem"
	ifx "fourindex/internal/fourindex"
	"fourindex/internal/ga"
	"fourindex/internal/lb/chain"
)

// stateFile is the queue snapshot inside Config.StateDir. Together
// with the per-job checkpoint directories under ckpt/, it is the whole
// of the server's durable state: a restarted process reconstructs its
// queue from this file and resumes interrupted transforms from their
// checkpoints.
const stateFile = "jobs.json"

// persistedState is the on-disk shape of the server's job table.
type persistedState struct {
	// NextSeq continues the job ID sequence across restarts so resumed
	// and new jobs never collide.
	NextSeq int `json:"nextSeq"`
	// Jobs is every job the server knows about, in submission order.
	Jobs []persistedJob `json:"jobs"`
}

// persistedJob is one job's durable record.
type persistedJob struct {
	// ID, Seq, Spec, State, Error, Resumed and Result mirror Job.
	ID      string     `json:"id"`
	Seq     int        `json:"seq"`
	Spec    JobSpec    `json:"spec"`
	State   string     `json:"state"`
	Error   string     `json:"error,omitempty"`
	Resumed bool       `json:"resumed,omitempty"`
	Result  *JobResult `json:"result,omitempty"`
	// Plan is the admission-time resolution, persisted so a restarted
	// server re-admits the job under the exact reservation (and tiling —
	// checkpoint offsets are tile-aligned) it was planned with.
	Plan persistedPlan `json:"plan"`
}

// persistedPlan is the serializable form of jobPlan.
type persistedPlan struct {
	// N, Sym and Seed reconstruct the chem.Spec.
	N   int `json:"n"`
	Sym int `json:"sym"`
	// Seed seeds the synthetic integral generator; persisting it is
	// what makes a resumed run operate on bitwise-identical inputs.
	Seed uint64 `json:"seed"`
	// Scheme and Mode are the canonical names (SchemeByName /
	// ga.Mode.String round-trip).
	Scheme string `json:"scheme"`
	Mode   string `json:"mode"`
	// Procs, TileN and TileL pin the parallelisation and tiling.
	Procs int `json:"procs"`
	TileN int `json:"tileN"`
	TileL int `json:"tileL"`
	// RemovedGemmPath is decode-only: state files written before the
	// opt-in fast-GEMM path was removed mark jobs planned on it, which
	// restore must not resume on the classical kernel (see loadState).
	RemovedGemmPath bool `json:"strassen,omitempty"`
	// ReservedBytes and MinBytes pin the admission reservation.
	ReservedBytes int64 `json:"reservedBytes"`
	MinBytes      int64 `json:"minBytes"`
	// Chain and CapacityElements persist a chain-analysis job's problem
	// (chain jobs have no chem.Spec to reconstruct).
	Chain            *chain.Chain `json:"chain,omitempty"`
	CapacityElements int64        `json:"capacityElements,omitempty"`
}

// persistJob renders a Job durable. Caller holds the server mutex.
func persistJob(j *Job) persistedJob {
	mode := "execute"
	if j.plan.mode == ga.Cost {
		mode = "cost"
	}
	if c := j.plan.chainSpec; c != nil {
		return persistedJob{
			ID:      j.ID,
			Seq:     j.Seq,
			Spec:    j.Spec,
			State:   j.State,
			Error:   j.Error,
			Resumed: j.Resumed,
			Result:  j.Result,
			Plan: persistedPlan{
				Mode:             mode,
				ReservedBytes:    j.plan.reservedBytes,
				MinBytes:         j.plan.minBytes,
				Chain:            c,
				CapacityElements: j.plan.capacityElements,
			},
		}
	}
	return persistedJob{
		ID:      j.ID,
		Seq:     j.Seq,
		Spec:    j.Spec,
		State:   j.State,
		Error:   j.Error,
		Resumed: j.Resumed,
		Result:  j.Result,
		Plan: persistedPlan{
			N:             j.plan.spec.N,
			Sym:           j.plan.spec.S,
			Seed:          j.plan.spec.Seed,
			Scheme:        j.plan.scheme.String(),
			Mode:          mode,
			Procs:         j.plan.procs,
			TileN:         j.plan.tileN,
			TileL:         j.plan.tileL,
			ReservedBytes: j.plan.reservedBytes,
			MinBytes:      j.plan.minBytes,
		},
	}
}

// restore rebuilds the in-memory Job from its durable record.
func (pj persistedJob) restore() (*Job, error) {
	if c := pj.Plan.Chain; c != nil {
		// Chain jobs carry no chem.Spec; re-validate the persisted chain
		// so a hand-edited state file cannot smuggle a bad description
		// past admission.
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("serve: restore job %s: %w", pj.ID, err)
		}
		return &Job{
			ID:      pj.ID,
			Seq:     pj.Seq,
			Spec:    pj.Spec,
			State:   pj.State,
			Error:   pj.Error,
			Resumed: pj.Resumed,
			Result:  pj.Result,
			plan: jobPlan{
				mode:             ga.Cost,
				reservedBytes:    pj.Plan.ReservedBytes,
				minBytes:         pj.Plan.MinBytes,
				chainSpec:        c,
				capacityElements: pj.Plan.CapacityElements,
			},
		}, nil
	}
	spec, err := chem.NewSpec(pj.Plan.N, pj.Plan.Sym, pj.Plan.Seed)
	if err != nil {
		return nil, fmt.Errorf("serve: restore job %s: %w", pj.ID, err)
	}
	scheme, err := ifx.SchemeByName(pj.Plan.Scheme)
	if err != nil {
		return nil, fmt.Errorf("serve: restore job %s: %w", pj.ID, err)
	}
	mode := ga.Execute
	if pj.Plan.Mode == "cost" {
		mode = ga.Cost
	}
	return &Job{
		ID:      pj.ID,
		Seq:     pj.Seq,
		Spec:    pj.Spec,
		State:   pj.State,
		Error:   pj.Error,
		Resumed: pj.Resumed,
		Result:  pj.Result,
		plan: jobPlan{
			spec:          spec,
			scheme:        scheme,
			mode:          mode,
			procs:         pj.Plan.Procs,
			tileN:         pj.Plan.TileN,
			tileL:         pj.Plan.TileL,
			reservedBytes: pj.Plan.ReservedBytes,
			minBytes:      pj.Plan.MinBytes,
		},
	}, nil
}

// persistLocked writes the job table to StateDir/jobs.json atomically
// (temp file + rename), jobs sorted by sequence so the snapshot is a
// deterministic function of the job table. Caller holds the server
// mutex.
func (s *Server) persistLocked() error {
	st := persistedState{NextSeq: s.nextSeq}
	for _, j := range s.jobs {
		st.Jobs = append(st.Jobs, persistJob(j))
	}
	sort.Slice(st.Jobs, func(i, k int) bool { return st.Jobs[i].Seq < st.Jobs[k].Seq })
	raw, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode state: %w", err)
	}
	path := filepath.Join(s.cfg.StateDir, stateFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("serve: write state: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("serve: commit state: %w", err)
	}
	return nil
}

// ErrGemmPathRemoved fails a restored job that a previous server
// version planned on a GEMM path this build no longer has. Resuming it
// on the classical kernel would silently change its checksum, so the
// job comes back failed and must be resubmitted.
var ErrGemmPathRemoved = errors.New("serve: job was planned on a GEMM path that has been removed; resubmit it")

// loadState reads a previous process's job table, keeping terminal
// jobs for status queries and re-queuing the rest: queued jobs simply
// wait again, and running/interrupted jobs re-dispatch and resume from
// the checkpoint their previous run left under ckpt/<jobID>. A
// non-terminal job planned on a removed GEMM path comes back failed
// with ErrGemmPathRemoved instead. Called from New before the dispatch
// loop starts.
func (s *Server) loadState() error {
	raw, err := os.ReadFile(filepath.Join(s.cfg.StateDir, stateFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: read state: %w", err)
	}
	var st persistedState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("serve: corrupt state file: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq = st.NextSeq
	for i := range st.Jobs {
		j, err := st.Jobs[i].restore()
		if err != nil {
			return err
		}
		switch {
		case j.State == StateDone || j.State == StateFailed || j.State == StateCanceled:
			// Terminal: status stays queryable, nothing to run.
			s.events.finish(j.ID)
		case st.Jobs[i].Plan.RemovedGemmPath:
			j.State = StateFailed
			j.Error = ErrGemmPathRemoved.Error()
			s.events.finish(j.ID)
		default:
			j.State = StateQueued
			if err := s.queue.push(j); err != nil {
				return fmt.Errorf("serve: re-queue job %s: %w", j.ID, err)
			}
		}
		s.jobs[j.ID] = j
		if j.Seq > s.nextSeq {
			s.nextSeq = j.Seq
		}
	}
	return nil
}
