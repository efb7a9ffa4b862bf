package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fourindex/internal/trace"
)

// postJob submits spec to the test server, returning the HTTP response
// and decoded body.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (*http.Response, statusJSON) {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var st statusJSON
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, st
}

// TestSubmitRunStatus walks the happy path over HTTP: submit, run to
// completion, read back the terminal status with its result
// fingerprint, and see the job in the listing, the metrics, and its
// event stream.
func TestSubmitRunStatus(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, st := postJob(t, ts, smallExecuteSpec("alice"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("submitted job in state %q", st.State)
	}
	final := waitJob(t, s, st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished in state %q (%s), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.ChecksumSHA256 == "" || final.Result.FrobeniusSq == 0 {
		t.Fatalf("done job missing result fingerprint: %+v", final.Result)
	}
	if final.ReservedBytes <= 0 {
		t.Fatalf("job ran without a reservation")
	}
	if final.Result.PeakBytes > final.ReservedBytes {
		t.Fatalf("actual peak %d exceeded admission reservation %d", final.Result.PeakBytes, final.ReservedBytes)
	}

	// Status endpoint agrees.
	resp2, err := http.Get(ts.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", st.ID, err)
	}
	var got statusJSON
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	resp2.Body.Close()
	if got.State != StateDone || got.Result == nil || got.Result.ChecksumSHA256 != final.Result.ChecksumSHA256 {
		t.Fatalf("GET status disagrees with internal state: %+v", got)
	}

	// The event stream replays history for a finished job and ends.
	resp3, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	marks := 0
	sc := bufio.NewScanner(resp3.Body)
	for sc.Scan() {
		var ev trace.ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.Kind == "mark" {
			marks++
		}
	}
	resp3.Body.Close()
	if marks < 2 {
		t.Fatalf("event stream replayed %d slab marks, want >= 2", marks)
	}

	// Metrics include the gauges and alice's counters.
	resp4, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp4.Body); err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	resp4.Body.Close()
	metrics := buf.String()
	for _, want := range []string{
		fmt.Sprintf("fouridxd_mem_budget_bytes %d", s.cfg.MemBudgetBytes),
		`fouridxd_tenant_jobs_submitted{tenant="alice"}`,
		`fouridxd_tenant_jobs_done{tenant="alice"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Healthz is green.
	resp5, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d, want 200", resp5.StatusCode)
	}
}

// blockFirstMark installs a progress hook that blocks the first job
// reaching a slab mark until release is closed, reporting the blocked
// job's ID. It must be installed before any submit.
func blockFirstMark(s *Server) (blocked chan string, release chan struct{}) {
	blocked = make(chan string, 1)
	release = make(chan struct{})
	var once sync.Once
	s.progressHook = func(id string, ev trace.ProgressEvent) {
		if ev.Kind != "mark" {
			return
		}
		once.Do(func() {
			blocked <- id
			<-release
		})
	}
	return blocked, release
}

// TestBackpressure fills the run slot, the tenant quota, and the
// queue, checking each rejection: 429 + Retry-After for full queue and
// quota, with the running job held at a slab boundary so the scenario
// is deterministic.
func TestBackpressure(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxRunning = 1
	cfg.MaxQueue = 2
	cfg.TenantQuota = 2
	s := newTestServer(t, cfg)
	blocked, release := blockFirstMark(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// j1 (alice) takes the run slot and parks at its first slab mark.
	resp1, st1 := postJob(t, ts, smallExecuteSpec("alice"))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("j1: status %d", resp1.StatusCode)
	}
	if got := <-blocked; got != st1.ID {
		t.Fatalf("blocked job %s, want %s", got, st1.ID)
	}

	// j2 (alice) queues: alice is now at her quota of 2 (1 running + 1
	// queued).
	resp2, st2 := postJob(t, ts, smallExecuteSpec("alice"))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("j2: status %d", resp2.StatusCode)
	}

	// j3 (alice) trips the tenant quota.
	resp3, _ := postJob(t, ts, smallExecuteSpec("alice"))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("j3 over quota: status %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") != retryAfterSeconds {
		t.Fatalf("j3: Retry-After %q, want %q", resp3.Header.Get("Retry-After"), retryAfterSeconds)
	}

	// j4 (bob) still fits: the queue has one free slot.
	resp4, st4 := postJob(t, ts, smallExecuteSpec("bob"))
	if resp4.StatusCode != http.StatusAccepted {
		t.Fatalf("j4: status %d", resp4.StatusCode)
	}

	// j5 (bob) trips the global queue bound.
	resp5, _ := postJob(t, ts, smallExecuteSpec("bob"))
	if resp5.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("j5 over queue: status %d, want 429", resp5.StatusCode)
	}
	if resp5.Header.Get("Retry-After") == "" {
		t.Fatalf("j5: 429 without Retry-After")
	}

	// Release the slot; everything admitted drains to done.
	close(release)
	for _, id := range []string{st1.ID, st2.ID, st4.ID} {
		if final := waitJob(t, s, id); final.State != StateDone {
			t.Fatalf("job %s: state %q (%s), want done", id, final.State, final.Error)
		}
	}
}

// TestOverBudgetRejects submits a job whose cheapest schedule cannot
// fit the server budget and expects an immediate 422.
func TestOverBudgetRejects(t *testing.T) {
	cfg := testConfig(t)
	cfg.MemBudgetBytes = 4 << 10
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJob(t, ts, JobSpec{Tenant: "alice", N: 128, Scheme: "unfused", Mode: "cost"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget submit: status %d, want 422", resp.StatusCode)
	}
}

// TestCancel covers DELETE for both queued and running jobs: the
// queued job dies immediately, the running one is canceled
// cooperatively at its next slab boundary and never reports a result.
func TestCancel(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxRunning = 1
	s := newTestServer(t, cfg)
	blocked, release := blockFirstMark(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st1 := postJob(t, ts, smallExecuteSpec("alice"))
	<-blocked
	_, st2 := postJob(t, ts, smallExecuteSpec("alice"))

	doDelete := func(id string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		if err != nil {
			t.Fatalf("build DELETE: %v", err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE %s: %v", id, err)
		}
		resp.Body.Close()
		return resp
	}

	// Queued job: canceled synchronously.
	if resp := doDelete(st2.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE queued: status %d, want 200", resp.StatusCode)
	}
	if final := waitJob(t, s, st2.ID); final.State != StateCanceled {
		t.Fatalf("queued job after DELETE: state %q, want canceled", final.State)
	}

	// Running job: cancellation is cooperative (202, then canceled).
	if resp := doDelete(st1.ID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running: status %d, want 202", resp.StatusCode)
	}
	close(release)
	final := waitJob(t, s, st1.ID)
	if final.State != StateCanceled {
		t.Fatalf("running job after DELETE: state %q (%s), want canceled", final.State, final.Error)
	}
	if final.Result != nil {
		t.Fatalf("canceled job reported a partial result: %+v", final.Result)
	}

	// Unknown job: 404 on both verbs.
	if resp := doDelete("j999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: status %d, want 404", resp.StatusCode)
	}
}

// TestSubmitValidation exercises the 400 family: bad JSON, unknown
// fields, missing tenant, unknown scheme and mode, and the execute-mode
// orbital cap.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := []JobSpec{
		{N: 8},                             // no tenant
		{Tenant: "a"},                      // no extent
		{Tenant: "a", N: 8, Scheme: "zig"}, // unknown scheme
		{Tenant: "a", N: 8, Mode: "warp"},  // unknown mode
		{Tenant: "a", N: 4096, Mode: "execute"},
		{Tenant: "a", Molecule: "no-such-molecule"},
	}
	for i, spec := range bad {
		resp, _ := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %d: status %d, want 400", i, resp.StatusCode)
		}
	}

	// Raw bodies: malformed JSON, and well-formed specs carrying a field
	// JobSpec does not have (a retired option, a misspelt deadline),
	// which must be refused by name rather than silently dropped.
	raw := []struct{ body, field string }{
		{`{nope`, ""},
		{`{"tenant": "a", "n": 8, "strassen": true}`, "strassen"},
		{`{"tenant": "a", "n": 8, "deadline": 5}`, "deadline"},
	}
	for _, c := range raw {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		var e httpError
		decErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", c.body, resp.StatusCode)
		}
		if c.field != "" && (decErr != nil || !strings.Contains(e.Error, `"`+c.field+`"`)) {
			t.Errorf("body %s: error %q (decode %v), want it to name %q", c.body, e.Error, decErr, c.field)
		}
	}

	if resp, err := http.Get(ts.URL + "/jobs/nope"); err != nil {
		t.Fatalf("GET unknown: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET unknown job: status %d, want 404", resp.StatusCode)
		}
	}
}
