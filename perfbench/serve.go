package main

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fourindex/internal/chem"
	"fourindex/internal/cluster"
	"fourindex/internal/faults"
	ifx "fourindex/internal/fourindex"
	"fourindex/internal/ga"
	"fourindex/internal/lb/chain"
	"fourindex/internal/serve"
)

// The serve workload's pinned server: two job slots on two BLAS
// workers, each job on two processes, admitted against a modeled
// 2^46-byte budget that every job of the mix fits.
const (
	serveProcs      = 2
	serveWorkers    = 2
	serveMaxRunning = 2
	serveBudget     = int64(1) << 46
	serveClients    = 2
	serveMachine    = "B"
	// mp2Occ and mp2Virt size the chain-analysis job.
	mp2Occ, mp2Virt = 16, 80
	// stateRoot is where servers keep their state, inside the checkout.
	stateRoot = ".bench_build"
)

// The kinds of job in the mix.
const (
	kindUnfused = iota // execute n=40 unfused
	kindAuto           // execute n=32 auto: the frontier tuner runs at submit
	kindCost           // cost-mode Hyperpolar fullyfused-inner: a dry run at submit
	kindMP2            // mp2 chain analysis
	numKinds
)

// mixBlock is one block of the job sequence; each block is shuffled by
// the seed. The weights put both reported latencies inside one job
// kind's band rather than on the edge between two: the median among
// the unfused jobs (the middle third of the block) and the tail, at
// the 80-85th percentile for a run's 50-70 jobs, among the cost jobs
// (the top third).
var mixBlock = []int{kindUnfused, kindUnfused, kindAuto, kindCost, kindCost, kindMP2}

// serveKinds are the mix's job specs. Each kind has one spec per seed,
// repeated all run, so its results must repeat bit for bit.
func serveKinds(seed uint64) ([]serve.JobSpec, error) {
	mp2, err := chain.MP2(mp2Occ, mp2Virt)
	if err != nil {
		return nil, err
	}
	return []serve.JobSpec{
		kindUnfused: {N: 40, Scheme: "unfused", Mode: "execute", Seed: specSeed(seed, saltServeUnfused)},
		kindAuto:    {N: 32, Scheme: "auto", Mode: "execute", Seed: specSeed(seed, saltServeAuto)},
		kindCost:    {Molecule: "Hyperpolar", Scheme: "fullyfused-inner", Mode: "cost", Seed: specSeed(seed, saltServeCost)},
		kindMP2:     {Chain: mp2},
	}, nil
}

var kindNames = [numKinds]string{"execute-unfused-n40", "execute-auto-n32", "cost-hyperpolar-fullyfused-inner", "chain-mp2"}

// serveKindAt returns the kind of the i-th job of the seeded sequence.
func serveKindAt(seed uint64, i int) int {
	b := i / len(mixBlock)
	perm := rand.New(rand.NewPCG(seed, uint64(b))).Perm(len(mixBlock))
	return mixBlock[perm[i%len(mixBlock)]]
}

// serveEnv is one running job server behind a loopback HTTP listener.
type serveEnv struct {
	srv   *serve.Server
	hs    *httptest.Server
	dir   string
	kinds []serve.JobSpec
	seed  uint64
	fp    fingerprints
}

func startServe(seed uint64) (*serveEnv, error) {
	kinds, err := serveKinds(seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(stateRoot, "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		MemBudgetBytes: serveBudget,
		StateDir:       dir,
		Procs:          serveProcs,
		Workers:        serveWorkers,
		MaxRunning:     serveMaxRunning,
		Machine:        serveMachine,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &serveEnv{srv: srv, hs: httptest.NewServer(srv.Handler()), dir: dir, kinds: kinds, seed: seed,
		fp: fingerprints{m: map[int]string{}}}, nil
}

// close stops the listener and the server, waits for both, and removes
// the server's state.
func (e *serveEnv) close() {
	e.hs.Close()
	e.srv.Close()
	os.RemoveAll(e.dir)
}

// setupServe starts a server and runs the discarded warm-up job (the
// auto kind, which exercises the tuner, admission and an execute run).
func setupServe(seed uint64) (*serveEnv, float64, error) {
	t0 := time.Now()
	e, err := startServe(seed)
	if err != nil {
		return nil, 0, err
	}
	spec := e.kinds[kindAuto]
	spec.Tenant = "warm-up"
	if r := doJob(e.hs.Client(), e.hs.URL, spec); r.err != nil {
		e.close()
		return nil, 0, fmt.Errorf("serve warm-up: %w", r.err)
	}
	return e, since(t0), nil
}

func pinServe(rep *report, seed uint64) {
	names := make([]string, len(mixBlock))
	for i, k := range mixBlock {
		names[i] = kindNames[k]
	}
	rep.add("input", fmt.Sprintf("serve.New procs=%d workers=%d maxRunning=%d budget=2^46 B machine=%s, %d closed-loop HTTP clients, seeded shuffled blocks of %v, mp2 chain occ=%d virt=%d",
		serveProcs, serveWorkers, serveMaxRunning, serveMachine, serveClients, names, mp2Occ, mp2Virt))
	kinds, err := serveKinds(seed)
	if err == nil {
		for k, sp := range kinds {
			rep.add("job "+kindNames[k], fmt.Sprintf("n=%d molecule=%q scheme=%q mode=%q spec-seed=%d", sp.N, sp.Molecule, sp.Scheme, sp.Mode, sp.Seed))
		}
	}
}

// jobStatus is the part of GET /jobs/{id} the benchmark reads.
type jobStatus struct {
	ID            string     `json:"id"`
	State         string     `json:"state"`
	Scheme        string     `json:"scheme"`
	TileN         int        `json:"tileN"`
	TileL         int        `json:"tileL"`
	ReservedBytes int64      `json:"reservedBytes"`
	Error         string     `json:"error"`
	Result        *jobResult `json:"result"`
}

type jobResult struct {
	SimSeconds     float64         `json:"simSeconds"`
	PeakBytes      int64           `json:"peakBytes"`
	CommElements   int64           `json:"commElements"`
	Flops          int64           `json:"flops"`
	ChecksumSHA256 string          `json:"checksumSha256"`
	ChainReport    json.RawMessage `json:"chainReport"`
}

// jobRec is one job as a client saw it. Times are seconds.
type jobRec struct {
	kind      int
	lat       float64 // POST sent to final status read
	submit    float64 // POST latency: admission, planning, dry run
	queueWait float64 // POST answered to first progress event
	run       float64 // first progress event to end of stream
	events    bool    // the job streamed progress events
	rejected  bool    // 429 or 422
	st        jobStatus
	err       error
}

// doJob submits spec, follows its event stream to the end and reads its
// final status.
func doJob(c *http.Client, base string, spec serve.JobSpec) jobRec {
	var r jobRec
	body, err := json.Marshal(spec)
	if err != nil {
		r.err = err
		return r
	}
	t0 := time.Now()
	resp, err := c.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.submit = since(t0)
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode != http.StatusAccepted {
		r.rejected = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusUnprocessableEntity
		r.err = fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(raw))
		return r
	}
	if err := json.Unmarshal(raw, &r.st); err != nil {
		r.err = err
		return r
	}
	accepted := time.Now()

	resp, err = c.Get(base + "/jobs/" + r.st.ID + "/events")
	if err != nil {
		r.err = err
		return r
	}
	var first time.Time
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if first.IsZero() {
			first = time.Now()
		}
	}
	end := time.Now()
	err = sc.Err()
	resp.Body.Close()
	if err != nil {
		r.err = fmt.Errorf("events of %s: %w", r.st.ID, err)
		return r
	}
	if !first.IsZero() {
		r.events = true
		r.queueWait = first.Sub(accepted).Seconds()
		r.run = end.Sub(first).Seconds()
	}

	resp, err = c.Get(base + "/jobs/" + r.st.ID)
	if err != nil {
		r.err = err
		return r
	}
	err = json.NewDecoder(resp.Body).Decode(&r.st)
	resp.Body.Close()
	r.lat = since(t0)
	if err != nil {
		r.err = err
		return r
	}
	if r.st.State != serve.StateDone || r.st.Result == nil {
		r.err = fmt.Errorf("job %s ended %s: %s", r.st.ID, r.st.State, r.st.Error)
	}
	return r
}

// fingerprints holds the first result of each job kind; every repeat
// of the kind must reproduce it.
type fingerprints struct {
	mu sync.Mutex
	m  map[int]string
}

// check verifies a finished job: a transform's reservation covers its
// actual peak, and its result repeats the kind's first one bit for bit
// (the checksumSha256 of C in execute mode, the simulated figures in
// cost mode, the whole report for the chain analysis).
func (f *fingerprints) check(r jobRec) error {
	res := r.st.Result
	var fp string
	switch r.kind {
	case kindMP2:
		fp = string(res.ChainReport)
	case kindCost:
		fp = fmt.Sprintf("sim=%v peak=%d comm=%d flops=%d", res.SimSeconds, res.PeakBytes, res.CommElements, res.Flops)
	default:
		if res.ChecksumSHA256 == "" {
			return fmt.Errorf("job %s (%s): no checksum", r.st.ID, kindNames[r.kind])
		}
		fp = res.ChecksumSHA256
	}
	if r.kind != kindMP2 && r.st.ReservedBytes < res.PeakBytes {
		return fmt.Errorf("job %s (%s): reserved %d B < peak %d B", r.st.ID, kindNames[r.kind], r.st.ReservedBytes, res.PeakBytes)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if first, ok := f.m[r.kind]; !ok {
		f.m[r.kind] = fp
	} else if first != fp {
		return fmt.Errorf("job %s (%s): result differs from the kind's first run", r.st.ID, kindNames[r.kind])
	}
	return nil
}

// loop runs serveClients closed-loop clients over the seeded job
// sequence. A client starts no job once the deadline has passed and the
// current block of the sequence is complete, so a run measures whole
// blocks — at least minBlocks of them.
func (e *serveEnv) loop(deadline time.Time, minBlocks int) ([]jobRec, float64) {
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		recs    []jobRec
		wg      sync.WaitGroup
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !stopped && next%len(mixBlock) == 0 && next >= minBlocks*len(mixBlock) && time.Now().After(deadline) {
			stopped = true
		}
		if stopped {
			return 0, false
		}
		next++
		return next - 1, true
	}
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("client-%d", c)
			for {
				i, ok := claim()
				if !ok {
					return
				}
				k := serveKindAt(e.seed, i)
				spec := e.kinds[k]
				spec.Tenant = tenant
				r := doJob(e.hs.Client(), e.hs.URL, spec)
				r.kind = k
				if r.err == nil {
					r.err = e.fp.check(r)
				}
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return recs, since(t0)
}

func runServe(cfg config, rep *report) (*measured, error) {
	m := &measured{}
	var e *serveEnv
	for i := 0; i < setupReps; i++ {
		env, sec, err := setupServe(cfg.seed)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, sec)
		if i < setupReps-1 {
			env.close()
		} else {
			e = env
		}
	}
	defer e.close()
	pinServe(rep, cfg.seed)
	heap := startHeapSampler()
	a0 := totalAlloc()
	recs, window := e.loop(time.Now().Add(seconds(cfg.seconds)), 1)
	m.alloc = totalAlloc() - a0
	m.peakHeap = heap.finish()
	m.window = window
	perKind := map[string][]float64{}
	for _, r := range recs {
		m.attempted++
		m.lat = append(m.lat, r.lat)
		perKind[kindNames[r.kind]] = append(perKind[kindNames[r.kind]], r.lat)
		if r.err != nil {
			m.failed++
			rep.add("failure", r.err)
		}
	}
	for _, k := range kindNames {
		rep.add("latency_p50 "+k, fmt.Sprintf("%.4f s over %d jobs", median(perKind[k]), len(perKind[k])))
	}
	return m, nil
}

// serveMetrics derives the serve-layer metrics from jobs seen over HTTP.
func serveMetrics(e *serveEnv, recs []jobRec) (map[string]metric, error) {
	var submit, queue, run []float64
	rejected := 0
	minRatio := 0.0
	for _, r := range recs {
		if r.rejected {
			rejected++
			continue
		}
		submit = append(submit, r.submit)
		if r.events {
			queue = append(queue, r.queueWait)
			run = append(run, r.run)
		}
		if res := r.st.Result; res != nil && r.kind != kindMP2 && res.PeakBytes > 0 {
			ratio := float64(r.st.ReservedBytes) / float64(res.PeakBytes)
			if minRatio == 0 || ratio < minRatio {
				minRatio = ratio
			}
		}
	}
	stateBytes, err := dirBytes(e.dir)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"serve.submit_p50_s":       {median(submit), "s"},
		"serve.queue_wait_p50_s":   {median(queue), "s"},
		"serve.run_p50_s":          {median(run), "s"},
		"serve.rejected_frac":      {failedFrac(rejected, len(recs)), "ratio"},
		"serve.reserved_over_peak": {minRatio, "ratio"},
		"serve.state_bytes":        {float64(stateBytes), "bytes"},
	}, nil
}

// serveProbe measures the serve layer on the execute and plan traced
// runs: a fresh server runs one block of the mix.
func serveProbe(seed uint64, t *traced, rep *report) error {
	e, _, err := setupServe(seed)
	if err != nil {
		return err
	}
	defer e.close()
	recs, _ := e.loop(time.Now(), 1)
	for _, r := range recs {
		t.count(rep, r.err, nil)
	}
	ms, err := serveMetrics(e, recs)
	if err != nil {
		return err
	}
	for k, v := range ms {
		t.metrics[k] = v
	}
	return nil
}

// tracedServe spends half the run time on the HTTP loop, for the
// serve-layer metrics, and half on traced transforms of the mix's
// execute-mode job plans called directly, for the layers beneath the
// server. The cost job is left out there: one run of it emits about 3.5
// million trace events, and a ring that holds them all (with the sorted
// copy Events returns) would need half a gigabyte. Its schedules' layers
// are what the plan workload traces, and serve.dry_run_s times its
// admission.
func tracedServe(cfg config, rep *report) (*traced, error) {
	e, _, err := setupServe(cfg.seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	pinServe(rep, cfg.seed)
	t := &traced{}
	recs, _ := e.loop(time.Now().Add(seconds(cfg.seconds/2)), 1)
	serveLayer, err := serveMetrics(e, recs)
	if err != nil {
		return nil, err
	}
	plans := map[int]jobRec{}
	for _, r := range recs {
		t.count(rep, r.err, nil)
		if _, ok := plans[r.kind]; !ok && r.err == nil {
			plans[r.kind] = r
		}
	}
	for k := 0; k < numKinds; k++ {
		if r, ok := plans[k]; ok && k != kindMP2 {
			rep.add("plan "+kindNames[k], fmt.Sprintf("%s tileN=%d tileL=%d reserved=%d B", r.st.Scheme, r.st.TileN, r.st.TileL, r.st.ReservedBytes))
		}
	}
	run, err := serveRun()
	if err != nil {
		return nil, err
	}
	var pairs opPairs
	start := time.Now()
	for b := 0; b == 0 || since(start) < cfg.seconds/2; b++ {
		for _, k := range mixBlock {
			r, ok := plans[k]
			if !ok || e.kinds[k].Mode != "execute" {
				continue
			}
			scheme, opt, err := directOptions(e.kinds[k], r.st, run)
			if err != nil {
				return nil, err
			}
			if opt.Faults, err = e.checkpoint(); err != nil {
				return nil, err
			}
			t0 := time.Now()
			res, err := ifx.Run(scheme, opt)
			plain := since(t0)
			t.count(rep, err, func() error { return sameAsServed(r, res) })

			tr, rec := newTracer(execRing)
			opt.Trace = tr
			if opt.Faults, err = e.checkpoint(); err != nil {
				return nil, err
			}
			t0 = time.Now()
			res, err = ifx.Run(scheme, opt)
			wall := since(t0)
			t.count(rep, err, func() error { return sameAsServed(r, res) })
			if err != nil {
				continue
			}
			pairs.add(plain, digestTrace(tr, rec, wall))
		}
	}
	t.metrics = pairs.metrics(rep)
	for k, v := range serveLayer {
		t.metrics[k] = v
	}
	if err := addProbes(t, cfg.seed, rep, false); err != nil {
		return nil, err
	}
	return t, nil
}

// checkpoint returns a fresh file checkpoint store under the server's
// state directory, so a direct run writes the checkpoints the served
// job wrote and charges their simulated cost the same way.
func (e *serveEnv) checkpoint() (*faults.Injection, error) {
	dir, err := os.MkdirTemp(e.dir, "direct-")
	if err != nil {
		return nil, err
	}
	ck, err := faults.NewFileCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	return &faults.Injection{Checkpoint: ck}, nil
}

// serveRun is the machine model the server simulates and plans with.
func serveRun() (*cluster.Run, error) {
	m, err := cluster.ByName(serveMachine)
	if err != nil {
		return nil, err
	}
	run, err := m.Configure(serveProcs, 0)
	if err != nil {
		return nil, err
	}
	return &run, nil
}

// directOptions rebuilds the transform an execute-mode served job ran,
// from its spec and the plan its status reports.
func directOptions(sp serve.JobSpec, st jobStatus, run *cluster.Run) (ifx.Scheme, ifx.Options, error) {
	spec, err := chem.NewSpec(sp.N, 1, sp.Seed)
	if err != nil {
		return 0, ifx.Options{}, err
	}
	scheme, err := ifx.SchemeByName(st.Scheme)
	if err != nil {
		return 0, ifx.Options{}, err
	}
	return scheme, ifx.Options{
		Spec:           spec,
		Procs:          serveProcs,
		Mode:           ga.Execute,
		Run:            run,
		GlobalMemBytes: st.ReservedBytes,
		TileN:          st.TileN,
		TileL:          st.TileL,
	}, nil
}

// sameAsServed checks a direct run's C against the served job's
// checksum.
func sameAsServed(r jobRec, res *ifx.Result) error {
	sum := checksum(res.C)
	if hex.EncodeToString(sum[:]) != r.st.Result.ChecksumSHA256 {
		return fmt.Errorf("direct %s: checksum differs from the served job's", kindNames[r.kind])
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
