package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"fourindex/internal/lb/chain"
)

// retryAfterSeconds is the fixed backpressure hint returned with every
// 429. A constant (rather than a queue-derived estimate) keeps the
// handler clock-free; clients treat it as a floor, not a promise.
const retryAfterSeconds = "5"

// Handler returns the server's HTTP API:
//
//	POST   /jobs             submit (202; 429 full/quota; 422 over budget)
//	GET    /jobs             list all jobs
//	GET    /jobs/{id}        one job's status
//	DELETE /jobs/{id}        cancel a queued or running job
//	GET    /jobs/{id}/events stream progress events as JSON lines
//	GET    /metrics          admission gauges and per-tenant counters
//	GET    /healthz          200 serving / 503 draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// httpError is the JSON error body.
type httpError struct {
	Error string `json:"error"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The response is already committed; nothing to recover.
		return
	}
}

// handleSubmit admits one job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	// A misspelt or retired field would otherwise be dropped and the
	// job run without it (a "deadline" typo runs with no deadline).
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: fmt.Sprintf("bad job spec: %v", err)})
		return
	}
	j, err := s.Submit(r.Context(), spec)
	switch {
	case err == nil:
		s.mu.Lock()
		st := j.status()
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQuota):
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusTooManyRequests, httpError{Error: err.Error()})
	case errors.Is(err, ErrOverBudget):
		writeJSON(w, http.StatusUnprocessableEntity, httpError{Error: err.Error()})
	case isChainError(err):
		// The bound engine's typed errors — malformed chain description,
		// non-positive capacity, size-arithmetic overflow — are semantic
		// rejections of a well-formed request: 422, never a panic.
		writeJSON(w, http.StatusUnprocessableEntity, httpError{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, httpError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
	}
}

// isChainError reports whether err is one of the bound engine's typed
// errors.
func isChainError(err error) bool {
	var ve *chain.ValidationError
	var ce *chain.CapacityError
	var oe *chain.OverflowError
	return errors.As(err, &ve) || errors.As(err, &ce) || errors.As(err, &oe)
}

// ErrDraining rejects submits while the server drains.
var ErrDraining = errors.New("serve: server is draining")

// Submit validates, plans and enqueues a job, returning it in
// StateQueued (the dispatcher may flip it to StateRunning at any
// moment after). ctx bounds only the planning step ("auto" tuning);
// the job itself runs under the server's context.
func (s *Server) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.mu.Unlock()

	// Planning happens outside the lock: "auto" cost-simulates a
	// shortlist, which must not block status queries.
	plan, err := s.planJob(ctx, spec)
	if err != nil {
		s.mu.Lock()
		s.tenant(spec.Tenant).Rejected++
		s.mu.Unlock()
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.nextSeq++
	j := &Job{
		ID:    fmt.Sprintf("j%d", s.nextSeq),
		Seq:   s.nextSeq,
		Spec:  spec,
		State: StateQueued,
		plan:  plan,
	}
	if err := s.queue.push(j); err != nil {
		s.tenant(spec.Tenant).Rejected++
		return nil, err
	}
	s.jobs[j.ID] = j
	s.tenant(spec.Tenant).Submitted++
	s.nudge()
	return j, nil
}

// handleList returns every job, newest first.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]statusJSON, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.status())
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID > out[k].ID })
	writeJSON(w, http.StatusOK, out)
}

// handleStatus returns one job.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var st statusJSON
	if ok {
		st = j.status()
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, httpError{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleCancel cancels a queued or running job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeJSON(w, http.StatusNotFound, httpError{Error: "no such job"})
		return
	}
	switch j.State {
	case StateQueued:
		if s.queue.remove(j) {
			j.State = StateCanceled
			j.Error = "canceled before start"
			s.tenant(j.Spec.Tenant).finished(StateCanceled)
		}
		st := j.status()
		s.mu.Unlock()
		s.events.finish(j.ID)
		writeJSON(w, http.StatusOK, st)
	case StateRunning:
		cancel := j.cancel
		st := j.status()
		s.mu.Unlock()
		if cancel != nil {
			// The schedule stops at its next slab/stage boundary; the
			// job transitions to StateCanceled when RunContext returns.
			cancel()
		}
		writeJSON(w, http.StatusAccepted, st)
	default:
		st := j.status()
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, st)
	}
}

// handleEvents streams a job's progress events as newline-delimited
// JSON: the history so far, then live events until the job finishes or
// the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, known := s.jobs[id]
	s.mu.Unlock()
	if !known {
		writeJSON(w, http.StatusNotFound, httpError{Error: "no such job"})
		return
	}
	history, live, cancel := s.events.subscribe(id)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for _, ev := range history {
		if err := enc.Encode(ev); err != nil {
			return
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// tenantCounters is one tenant's lifetime counters, reported on
// /metrics. Guarded by the server mutex.
type tenantCounters struct {
	Submitted int64
	Rejected  int64
	Done      int64
	Failed    int64
	Canceled  int64
}

// finished bumps the counter matching a terminal state.
func (c *tenantCounters) finished(state string) {
	switch state {
	case StateDone:
		c.Done++
	case StateFailed:
		c.Failed++
	case StateCanceled:
		c.Canceled++
	}
	// StateInterrupted is not terminal: the job resumes after restart.
}

// tenant returns (creating if needed) the counters for a tenant.
// Caller holds the server mutex.
func (s *Server) tenant(name string) *tenantCounters {
	c := s.tenants[name]
	if c == nil {
		c = &tenantCounters{}
		s.tenants[name] = c
	}
	return c
}

// handleMetrics writes the admission gauges and per-tenant counters in
// a flat, Prometheus-style text format, tenants sorted by name so the
// output is deterministic.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	budget, reserved := s.adm.usage()
	s.mu.Lock()
	running := s.running
	depth := s.queue.depth()
	draining := 0
	if s.draining {
		draining = 1
	}
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	type namedCounters struct {
		name string
		c    tenantCounters
	}
	counters := make([]namedCounters, 0, len(names))
	for _, name := range names {
		counters = append(counters, namedCounters{name: name, c: *s.tenants[name]})
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "fouridxd_mem_budget_bytes %d\n", budget)
	fmt.Fprintf(w, "fouridxd_mem_reserved_bytes %d\n", reserved)
	fmt.Fprintf(w, "fouridxd_jobs_running %d\n", running)
	fmt.Fprintf(w, "fouridxd_queue_depth %d\n", depth)
	fmt.Fprintf(w, "fouridxd_draining %d\n", draining)
	for _, nc := range counters {
		fmt.Fprintf(w, "fouridxd_tenant_jobs_submitted{tenant=%q} %d\n", nc.name, nc.c.Submitted)
		fmt.Fprintf(w, "fouridxd_tenant_jobs_rejected{tenant=%q} %d\n", nc.name, nc.c.Rejected)
		fmt.Fprintf(w, "fouridxd_tenant_jobs_done{tenant=%q} %d\n", nc.name, nc.c.Done)
		fmt.Fprintf(w, "fouridxd_tenant_jobs_failed{tenant=%q} %d\n", nc.name, nc.c.Failed)
		fmt.Fprintf(w, "fouridxd_tenant_jobs_canceled{tenant=%q} %d\n", nc.name, nc.c.Canceled)
	}
}

// handleHealthz reports liveness: 200 while serving, 503 during drain
// (load balancers stop routing new submits), plus the last background
// persistence error if one occurred.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	persistErr := s.persistErr
	s.mu.Unlock()
	status := http.StatusOK
	body := "ok"
	if draining {
		status = http.StatusServiceUnavailable
		body = "draining"
	}
	if persistErr != nil {
		body += fmt.Sprintf(" (state persistence degraded: %v)", persistErr)
	}
	w.WriteHeader(status)
	fmt.Fprintln(w, body)
}
