package daemon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"flowsched/internal/chkpt"
	"flowsched/internal/daemon"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// postJSON POSTs a body to path and returns status + response body.
func postJSON(t *testing.T, url, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// getHealthz returns the healthz status code and status string.
func getHealthz(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body.Status
}

// TestDaemonCheckpointOnDemandAndDrain: POST /checkpoint persists a
// loadable, compatible checkpoint; the graceful drain persists a final
// one with nothing pending and counters matching the drain summary.
func TestDaemonCheckpointOnDemandAndDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "daemon.ckpt")
	srv, ts := startServer(t, daemon.Config{CheckpointPath: path})

	flows := make([]switchnet.Flow, 40)
	for i := range flows {
		flows[i] = switchnet.Flow{In: i % 8, Out: (i + 5) % 8, Demand: 1}
	}
	if code, body := postFlows(t, ts.URL, flows); code != http.StatusAccepted {
		t.Fatalf("ingest: status %d, body %q", code, body)
	}

	code, body := postJSON(t, ts.URL, "/checkpoint", "")
	if code != http.StatusOK {
		t.Fatalf("POST /checkpoint: status %d, body %q", code, body)
	}
	var ckResp struct {
		Path    string `json:"path"`
		Round   int    `json:"round"`
		Pending int    `json:"pending"`
	}
	if err := json.Unmarshal([]byte(body), &ckResp); err != nil {
		t.Fatalf("checkpoint response %q: %v", body, err)
	}
	if ckResp.Path != path {
		t.Fatalf("checkpoint went to %q, want %q", ckResp.Path, path)
	}
	ck, err := chkpt.Load(path)
	if err != nil {
		t.Fatalf("on-demand checkpoint does not load: %v", err)
	}
	if err := ck.Compatible(switchnet.UnitSwitch(8)); err != nil {
		t.Fatal(err)
	}
	if ck.Round != ckResp.Round || ck.Pending != ckResp.Pending {
		t.Fatalf("file (round %d, pending %d) disagrees with response %+v", ck.Round, ck.Pending, ckResp)
	}

	// The checkpoint health counters ride /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), "flowsched_checkpoint_writes_total 1") {
		t.Fatalf("metrics missing checkpoint write counter:\n%s", mb)
	}

	sum, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	final, err := chkpt.Load(path)
	if err != nil {
		t.Fatalf("final drain checkpoint does not load: %v", err)
	}
	if final.Pending != 0 || len(final.Flows) != 0 {
		t.Fatalf("drained checkpoint still carries flows: pending %d, %d flows", final.Pending, len(final.Flows))
	}
	if final.Counters.Admitted != sum.Admitted || final.Counters.Completed != sum.Completed {
		t.Fatalf("final checkpoint counters %+v disagree with drain summary %+v", final.Counters, sum)
	}
	if final.Counters.Admitted != 40 {
		t.Fatalf("final checkpoint admitted %d, want 40", final.Counters.Admitted)
	}
}

// TestDaemonCheckpointDisabled: a server without a checkpoint path
// answers 409, not 500, and writes nothing.
func TestDaemonCheckpointDisabled(t *testing.T) {
	_, ts := startServer(t, daemon.Config{})
	if code, body := postJSON(t, ts.URL, "/checkpoint", ""); code != http.StatusConflict {
		t.Fatalf("status %d, body %q (want 409)", code, body)
	}
}

// restoreCheckpoint is a hand-built balanced checkpoint: 10 admitted, 7
// completed, 3 pending on distinct VOQs with original releases 0..2,
// consistent at round 100.
func restoreCheckpoint() *chkpt.Checkpoint {
	sw := switchnet.UnitSwitch(8)
	return &chkpt.Checkpoint{
		Round:          100,
		Pending:        3,
		SourceConsumed: 10,
		Policy:         "RoundRobin",
		Shards:         1,
		MaxPending:     stream.DefaultMaxPending,
		Admit:          "lossless",
		InCaps:         append([]int(nil), sw.InCaps...),
		OutCaps:        append([]int(nil), sw.OutCaps...),
		Counters: chkpt.Counters{
			Admitted:      10,
			Completed:     7,
			TotalResponse: 30,
			MaxResponse:   9,
			Rounds:        100,
			PeakPending:   5,
		},
		Flows: []switchnet.Flow{
			{In: 0, Out: 1, Demand: 1, Release: 0},
			{In: 1, Out: 2, Demand: 1, Release: 1},
			{In: 2, Out: 3, Demand: 1, Release: 2},
		},
	}
}

// TestDaemonRestoreContinuity: a server built from a checkpoint is
// healthy and checkpoints exactly the restored pending set before its
// round loop has run a single round, then finishes the restored backlog
// with response times charged from the original releases and counters
// continuous with the checkpoint.
func TestDaemonRestoreContinuity(t *testing.T) {
	ck := restoreCheckpoint()
	path := filepath.Join(t.TempDir(), "restored.ckpt")
	srv, err := daemon.New(daemon.Config{
		Switch:         switchnet.UnitSwitch(8),
		Policy:         stream.ByName("RoundRobin"),
		Restore:        ck,
		CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Not started yet, so no round has run: the restored backlog is
	// already resident, the daemon is healthy, and a checkpoint taken now
	// is exactly the one it was restored from.
	if code, status := getHealthz(t, ts.URL); code != http.StatusOK || status != "ok" {
		t.Fatalf("restored healthz: %d %q, want 200 ok", code, status)
	}
	if code, body := postJSON(t, ts.URL, "/checkpoint", ""); code != http.StatusOK {
		t.Fatalf("checkpoint of the restored state: status %d, body %q", code, body)
	}
	again, err := chkpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if again.Round != ck.Round || again.Pending != ck.Pending || again.Counters != ck.Counters ||
		again.SourceConsumed != ck.SourceConsumed || !slices.Equal(again.Flows, ck.Flows) {
		t.Fatalf("checkpoint of the restored state differs:\n got %+v\nwant %+v", again, ck)
	}

	srv.Start()
	if code, status := getHealthz(t, ts.URL); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthz right after Start: %d %q, want 200 ok", code, status)
	}

	flows := make([]switchnet.Flow, 5)
	for i := range flows {
		flows[i] = switchnet.Flow{In: (3 + i) % 8, Out: (4 + i) % 8, Demand: 1}
	}
	if code, body := postFlows(t, ts.URL, flows); code != http.StatusAccepted {
		t.Fatalf("post-restore ingest: status %d, body %q", code, body)
	}
	sum, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Admitted != 15 || sum.Completed != 15 || sum.Pending != 0 {
		t.Fatalf("restored accounting: %+v (want 15 admitted = 10 checkpointed + 5 new, all completed)", sum)
	}
	// The three restored flows were released at rounds 0..2 but complete
	// at or after the resume round, so their responses each exceed ~100
	// rounds: original releases survived the restore.
	if sum.MaxResponse < 99 {
		t.Fatalf("MaxResponse %d: restored flows lost their original releases", sum.MaxResponse)
	}
	if sum.TotalResponse < 30+297 {
		t.Fatalf("TotalResponse %d is not continuous with the checkpoint baseline", sum.TotalResponse)
	}
	if sum.Rounds < ck.Counters.Rounds {
		t.Fatalf("round counter went backwards: %d < %d", sum.Rounds, ck.Counters.Rounds)
	}

	// The post-drain checkpoint continues the lineage.
	final, err := chkpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if final.Counters.Admitted != 15 || final.Pending != 0 {
		t.Fatalf("final checkpoint after restored drain: %+v", final)
	}
	if final.Round < ck.Round {
		t.Fatalf("final checkpoint round %d precedes the restore round %d", final.Round, ck.Round)
	}
}

// TestDaemonRestoreRejectsMismatchedSwitch: restoring onto a different
// switch shape fails at construction, before anything runs.
func TestDaemonRestoreRejectsMismatchedSwitch(t *testing.T) {
	ck := restoreCheckpoint()
	_, err := daemon.New(daemon.Config{
		Switch:  switchnet.UnitSwitch(4), // checkpoint is 8x8
		Policy:  stream.ByName("RoundRobin"),
		Restore: ck,
	})
	if err == nil || !strings.Contains(err.Error(), "restore") {
		t.Fatalf("mismatched restore accepted: %v", err)
	}
}

// TestDaemonReloadEndpoint: a live policy/admission swap succeeds and is
// recorded in later checkpoints; invalid swaps change nothing; a
// draining daemon freezes its configuration.
func TestDaemonReloadEndpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reload.ckpt")
	srv, ts := startServer(t, daemon.Config{Shards: 2, CheckpointPath: path})

	for _, bad := range []struct{ name, body string }{
		{"unknown policy", `{"policy":"NoSuchPolicy"}`},
		{"unknown admit", `{"admit":"yolo"}`},
		{"negative maxpending", `{"max_pending":-5}`},
		{"deadline without mode", `{"deadline":16}`},
	} {
		if code, body := postJSON(t, ts.URL, "/reload", bad.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %q (want 400)", bad.name, code, body)
		}
	}

	code, body := postJSON(t, ts.URL, "/reload", `{"policy":"OldestFirst","admit":"deadline","deadline":64,"max_pending":128}`)
	if code != http.StatusOK {
		t.Fatalf("reload: status %d, body %q", code, body)
	}
	var re struct {
		Policy     string `json:"policy"`
		MaxPending int    `json:"max_pending"`
		Admit      string `json:"admit"`
		Deadline   int    `json:"deadline"`
	}
	if err := json.Unmarshal([]byte(body), &re); err != nil {
		t.Fatal(err)
	}
	if re.Policy != "OldestFirst" || re.MaxPending != 128 || re.Admit != "deadline" || re.Deadline != 64 {
		t.Fatalf("reload echo: %+v", re)
	}

	// Switching back to lossless clears the stale deadline implicitly.
	if code, body := postJSON(t, ts.URL, "/reload", `{"admit":"lossless"}`); code != http.StatusOK {
		t.Fatalf("admit-only reload: status %d, body %q", code, body)
	}

	// The daemon still schedules under the new policy, and a checkpoint
	// taken now records it.
	flows := make([]switchnet.Flow, 20)
	for i := range flows {
		flows[i] = switchnet.Flow{In: i % 8, Out: (i + 1) % 8, Demand: 1}
	}
	if code, body := postFlows(t, ts.URL, flows); code != http.StatusAccepted {
		t.Fatalf("post-reload ingest: status %d, body %q", code, body)
	}
	if code, body := postJSON(t, ts.URL, "/checkpoint", ""); code != http.StatusOK {
		t.Fatalf("post-reload checkpoint: status %d, body %q", code, body)
	}
	ck, err := chkpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Policy != "OldestFirst" || ck.MaxPending != 128 || ck.Admit != "lossless" || ck.Deadline != 0 {
		t.Fatalf("checkpoint records stale config: policy %q maxpending %d admit %q deadline %d",
			ck.Policy, ck.MaxPending, ck.Admit, ck.Deadline)
	}

	sum, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Admitted != 20 || sum.Admitted != sum.Completed+sum.Dropped+sum.Expired {
		t.Fatalf("post-reload accounting: %+v", sum)
	}
	if code, body := postJSON(t, ts.URL, "/reload", `{"policy":"RoundRobin"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("reload while draining: status %d, body %q (want 503)", code, body)
	}
}

// TestDaemonPeriodicCheckpoint: the wall-clock writer persists without
// any explicit request.
func TestDaemonPeriodicCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "periodic.ckpt")
	srv, ts := startServer(t, daemon.Config{
		CheckpointPath:  path,
		CheckpointEvery: 5 * time.Millisecond,
	})
	flows := make([]switchnet.Flow, 16)
	for i := range flows {
		flows[i] = switchnet.Flow{In: i % 8, Out: (i + 2) % 8, Demand: 1}
	}
	if code, body := postFlows(t, ts.URL, flows); code != http.StatusAccepted {
		t.Fatalf("ingest: status %d, body %q", code, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ck, err := chkpt.Load(path); err == nil && ck.Counters.Admitted == 16 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never covered the ingested flows")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonCheckpointEveryRequiresPath pins the config validation.
func TestDaemonCheckpointEveryRequiresPath(t *testing.T) {
	_, err := daemon.New(daemon.Config{
		Switch:          switchnet.UnitSwitch(4),
		Policy:          stream.ByName("RoundRobin"),
		CheckpointEvery: time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "CheckpointPath") {
		t.Fatalf("cadence without a path accepted: %v", err)
	}
}

// TestDaemonCheckpointEveryNegative: a negative cadence is refused, not
// read as "no periodic checkpoints", even with a path to write to.
func TestDaemonCheckpointEveryNegative(t *testing.T) {
	_, err := daemon.New(daemon.Config{
		Switch:          switchnet.UnitSwitch(4),
		Policy:          stream.ByName("RoundRobin"),
		CheckpointPath:  filepath.Join(t.TempDir(), "ck"),
		CheckpointEvery: -5 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "CheckpointEvery -5s is negative") {
		t.Fatalf("negative cadence: %v, want the negative-cadence error", err)
	}
}

// FuzzReload throws arbitrary bytes at POST /reload on a live server with
// flows in flight on both sides of the call. The endpoint answers 200
// (with the configuration now live), 400 or 503 and nothing else, and
// whatever it did to the policy and the admission settings, the drained
// accounting balances.
func FuzzReload(f *testing.F) {
	for _, seed := range []string{
		`{"policy":"OldestFirst","admit":"deadline","deadline":64,"max_pending":128}`,
		`{"policy":"WeightedISLIP","admit":"drop","max_pending":1}`,
		`{"admit":"deadline","deadline":1}`,
		`{"admit":"lossless"}`,
		`{"policy":"NoSuchPolicy"}`,
		`{"admit":"yolo"}`,
		`{"max_pending":-5}`,
		`{"deadline":16}`,
		`{"POLICY":"StreamFIFO","extra":[1,2,3]}`,
		`{"max_pending":1e0}`,
		`{"policy":"RoundRobin"} trailing`,
		`{"policy":`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := newServer(t, daemon.Config{})
		srv.Start()
		ingest := func() {
			if code, msg := post(context.Background(), srv, unitBody(t, 16)); code != http.StatusAccepted {
				t.Fatalf("ingest: status %d (%q)", code, msg)
			}
		}
		ingest()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var live struct {
				Policy string `json:"policy"`
				Admit  string `json:"admit"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &live); err != nil || stream.ByName(live.Policy) == nil {
				t.Errorf("200 with body %q (%v)", rec.Body, err)
			}
			if _, err := stream.ParseAdmitMode(live.Admit); err != nil || live.Admit == "" {
				t.Errorf("200 echoes admit %q (%v)", live.Admit, err)
			}
		case http.StatusBadRequest, http.StatusServiceUnavailable:
		default:
			t.Errorf("status %d (%q)", rec.Code, rec.Body)
		}
		ingest()
		sum, err := srv.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if sum.Admitted != 32 || sum.Pending != 0 || sum.Admitted != sum.Completed+sum.Dropped+sum.Expired {
			t.Errorf("accounting after reload %q: %+v", body, sum)
		}
	})
}
