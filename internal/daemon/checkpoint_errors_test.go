package daemon

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// checkpointErrors scrapes flowsched_checkpoint_errors_total.
func checkpointErrors(t *testing.T, s *Server) int {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		var n int
		if _, err := fmt.Sscanf(line, "flowsched_checkpoint_errors_total %d", &n); err == nil {
			return n
		}
	}
	t.Fatal("flowsched_checkpoint_errors_total missing from /metrics")
	return 0
}

// TestCheckpointErrorsCountFailedAttempts pins the error counter to the
// number of failed attempts. The checkpoint directory does not exist, so
// every write fails: the periodic path used to count each such failure
// twice (once where it happened, once more in the ticker loop), and a
// capture that failed on demand — the request gone before the runtime
// reached a quiescent point — was not counted at all.
func TestCheckpointErrorsCountFailedAttempts(t *testing.T) {
	cfg := Config{
		Switch:          switchnet.UnitSwitch(4),
		Policy:          stream.ByName("RoundRobin"),
		CheckpointPath:  filepath.Join(t.TempDir(), "missing", "ck"),
		CheckpointEvery: time.Hour, // the test fires the ticks itself
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	const ticks, posts = 3, 2
	for i := 0; i < ticks; i++ {
		s.checkpointTick()
	}
	for i := 0; i < posts; i++ {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/checkpoint", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("POST /checkpoint into a missing directory: status %d, body %q", rec.Code, rec.Body)
		}
	}
	if got := checkpointErrors(t, s); got != ticks+posts {
		t.Fatalf("errors_total = %d after %d failed ticks and %d failed posts", got, ticks, posts)
	}
	if _, err := s.Stop(); err != nil {
		t.Fatal(err)
	}

	// A capture under a finished context fails before anything is
	// written, even on a server that was never started.
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck")
	idle, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := idle.CheckpointNow(ctx); err == nil {
		t.Fatal("capture under a cancelled context succeeded on an unstarted server")
	}
	if got := checkpointErrors(t, idle); got != 1 {
		t.Fatalf("errors_total = %d after one failed capture", got)
	}
}
