package serve

import (
	"os"
	"path/filepath"
	"testing"
)

// oldGemmPathState is a jobs.json as an older server wrote it: both jobs
// were planned on the fast-GEMM path that build offered and this one
// does not. j1 was interrupted by a drain; j2 had already finished.
const oldGemmPathState = `{
  "nextSeq": 2,
  "jobs": [
    {
      "id": "j1",
      "seq": 1,
      "spec": {"tenant": "alice", "n": 8, "scheme": "fullyfused", "mode": "execute", "tileN": 4, "tileL": 2, "strassen": true},
      "state": "interrupted",
      "plan": {"n": 8, "sym": 1, "seed": 42, "scheme": "fullyfused", "mode": "execute", "procs": 2, "tileN": 4, "tileL": 2, "strassen": true, "reservedBytes": 1048576, "minBytes": 65536}
    },
    {
      "id": "j2",
      "seq": 2,
      "spec": {"tenant": "bob", "n": 8, "scheme": "fullyfused", "mode": "execute", "tileN": 4, "tileL": 2, "strassen": true},
      "state": "done",
      "result": {"scheme": "fullyfused", "chosenScheme": "fullyfused", "simSeconds": 0, "peakBytes": 4096, "commElements": 10, "flops": 20, "restarts": 0, "checksumSha256": "00ff"},
      "plan": {"n": 8, "sym": 1, "seed": 42, "scheme": "fullyfused", "mode": "execute", "procs": 2, "tileN": 4, "tileL": 2, "strassen": true, "reservedBytes": 1048576, "minBytes": 65536}
    }
  ]
}`

// TestRestoreRemovedGemmPath pins what a restarted server does with jobs
// planned on the removed GEMM path: an unfinished one comes back failed
// with ErrGemmPathRemoved instead of resuming on a different kernel, and
// a finished one keeps its stored state and result.
func TestRestoreRemovedGemmPath(t *testing.T) {
	cfg := testConfig(t)
	if err := os.WriteFile(filepath.Join(cfg.StateDir, stateFile), []byte(oldGemmPathState), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, cfg)

	failed := waitJob(t, s, "j1")
	if failed.State != StateFailed || failed.Error != ErrGemmPathRemoved.Error() {
		t.Errorf("interrupted job: state %q error %q, want %q with %q", failed.State, failed.Error, StateFailed, ErrGemmPathRemoved)
	}
	if failed.Result != nil || failed.Resumed {
		t.Errorf("interrupted job ran after restore: resumed=%v result=%+v", failed.Resumed, failed.Result)
	}

	done := waitJob(t, s, "j2")
	if done.State != StateDone || done.Error != "" {
		t.Errorf("finished job: state %q error %q, want done", done.State, done.Error)
	}
	if done.Result == nil || done.Result.ChecksumSHA256 != "00ff" {
		t.Errorf("finished job lost its stored result: %+v", done.Result)
	}

	s.mu.Lock()
	depth := s.queue.depth()
	s.mu.Unlock()
	if depth != 0 {
		t.Errorf("queue depth %d after restore, want 0", depth)
	}
}
