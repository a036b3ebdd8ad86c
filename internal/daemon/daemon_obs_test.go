package daemon_test

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"flowsched/internal/daemon"
	"flowsched/internal/obs"
	"flowsched/internal/pilot"
	"flowsched/internal/slo"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// getJSON decodes one GET endpoint into out and returns the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestDaemonSLOBreachFlips is the acceptance pin for the burn-rate
// engine: a deliberately overloaded drop-mode run must flip GET /slo
// from healthy to breaching, surface the breach as a degraded (but
// still 200) healthz, and expose the burn-rate gauges in /metrics.
func TestDaemonSLOBreachFlips(t *testing.T) {
	_, ts := startServer(t, daemon.Config{
		MaxPending:     4,
		Admit:          stream.AdmitDrop,
		Buffer:         8,
		SLOSampleEvery: 5 * time.Millisecond,
		SLOFastWindow:  50 * time.Millisecond,
		SLOSlowWindow:  500 * time.Millisecond,
	})

	// Healthy at birth: no events, no burn.
	var st slo.Status
	if code := getJSON(t, ts.URL+"/slo", &st); code != http.StatusOK {
		t.Fatalf("/slo status %d", code)
	}
	if len(st.Targets) == 0 || st.Targets[0].Name != "delivery" {
		t.Fatalf("unexpected targets: %+v", st.Targets)
	}
	if st.Targets[0].Breaching {
		t.Fatalf("fresh daemon already breaching: %+v", st.Targets[0])
	}
	var hz struct {
		Status    string   `json:"status"`
		Breaching []string `json:"breaching"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("fresh healthz: %d %+v", code, hz)
	}

	// Sustained overload: a 4-slot pending set fed same-VOQ batches
	// sheds nearly everything, burning the delivery budget instantly.
	stop := make(chan struct{})
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		flows := make([]switchnet.Flow, 50)
		for i := range flows {
			flows[i] = switchnet.Flow{In: 0, Out: 0, Demand: 1}
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if code, _ := postFlows(t, ts.URL, flows); code != http.StatusAccepted {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	deadline := time.After(10 * time.Second)
	breached := false
	for !breached {
		select {
		case <-deadline:
			close(stop)
			<-fed
			t.Fatalf("overload never breached the delivery SLO: %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
		getJSON(t, ts.URL+"/slo", &st)
		for _, tg := range st.Targets {
			if tg.Name == "delivery" && tg.Breaching {
				if tg.FastBurnRate < slo.DefaultFastBurn {
					t.Fatalf("breaching below the fast threshold: %+v", tg)
				}
				breached = true
			}
		}
	}

	// The breach degrades healthz but keeps it 200: an overloaded
	// scheduler still serves, and pulling it would cascade.
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("degraded healthz returned %d, want 200", code)
	}
	if hz.Status != "degraded" || len(hz.Breaching) == 0 || hz.Breaching[0] != "delivery" {
		t.Fatalf("degraded healthz body: %+v", hz)
	}

	// The burn-rate gauges ride the same scrape as the runtime metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`flowsched_slo_breach{target="delivery"} 1`,
		`flowsched_slo_burn_rate{target="delivery",window="fast"}`,
		`flowsched_slo_objective{target="delivery"} 0.999`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	close(stop)
	<-fed
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		// Allow 503 only if a concurrent test artifact drained; nothing
		// drains here, so any non-200 is a bug.
		t.Fatalf("healthz after overload stopped: %d", code)
	}
}

// TestDaemonRefusesOversizedTrace: a ring size past obs.MaxRecords is a
// configuration error, not an allocation that wraps or eats the host.
func TestDaemonRefusesOversizedTrace(t *testing.T) {
	_, err := daemon.New(daemon.Config{
		Switch:      switchnet.UnitSwitch(4),
		Policy:      stream.ByName("RoundRobin"),
		TraceRounds: math.MaxInt,
	})
	if err == nil || !strings.Contains(err.Error(), "MaxRecords") {
		t.Fatalf("TraceRounds MaxInt: %v, want the MaxRecords error", err)
	}
}

// TestDaemonRefusesNegativeObservability: a negative observability
// setting is a configuration error, not "use the default" and, for
// PilotEvery, not "pilot off".
func TestDaemonRefusesNegativeObservability(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*daemon.Config)
	}{
		{"TraceRounds", func(c *daemon.Config) { c.TraceRounds = -1 }},
		{"SLOObjective", func(c *daemon.Config) { c.SLOObjective = -0.5 }},
		{"SLOSampleEvery", func(c *daemon.Config) { c.SLOSampleEvery = -time.Second }},
		{"SLOFastWindow", func(c *daemon.Config) { c.SLOFastWindow = -time.Second }},
		{"SLOSlowWindow", func(c *daemon.Config) { c.SLOSlowWindow = -time.Second }},
		{"PilotEvery", func(c *daemon.Config) { c.PilotEvery = -time.Second }},
		{"PilotWindow", func(c *daemon.Config) { c.PilotWindow = -1 }},
	} {
		cfg := daemon.Config{Switch: switchnet.UnitSwitch(4), Policy: stream.ByName("RoundRobin")}
		tc.set(&cfg)
		// A server New accepts is never started, so there is nothing to
		// stop.
		if _, err := daemon.New(cfg); err == nil {
			t.Errorf("negative %s accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.name+" ") || !strings.Contains(err.Error(), "is negative") {
			t.Errorf("negative %s: %v, want the negative-%s error", tc.name, err, tc.name)
		}
	}
}

// TestDaemonTraceEndpoint: GET /trace serves the flight recorder as
// JSONL with strictly increasing rounds whose counts reconcile with the
// final summary.
func TestDaemonTraceEndpoint(t *testing.T) {
	srv, ts := startServer(t, daemon.Config{TraceRounds: 512})
	flows := make([]switchnet.Flow, 200)
	for i := range flows {
		flows[i] = switchnet.Flow{In: i % 8, Out: (i + 5) % 8, Demand: 1}
	}
	if code, body := postFlows(t, ts.URL, flows); code != http.StatusAccepted {
		t.Fatalf("ingest: %d %q", code, body)
	}
	sum, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/trace?last=512")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type %q", ct)
	}
	var (
		prev      int64 = -1
		lines     int
		scheduled int64
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec obs.RoundRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("trace line %d: %v", lines, err)
		}
		if rec.Round <= prev {
			t.Fatalf("trace rounds not strictly increasing: %d after %d", rec.Round, prev)
		}
		prev = rec.Round
		scheduled += rec.Scheduled
		lines++
	}
	if lines == 0 {
		t.Fatal("empty trace after a completed run")
	}
	if scheduled != sum.Completed {
		t.Fatalf("trace schedules %d != completed %d (ring did not wrap: %d rounds)", scheduled, sum.Completed, lines)
	}
	// Parameter validation.
	r2, err := http.Get(ts.URL + "/trace?last=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad last= returned %d, want 400", r2.StatusCode)
	}
}

// TestDaemonPilotEndpoint: with the pilot enabled, a bounded replay
// yields finite competitive-ratio estimates >= 1 on /pilot and the
// pilot gauges in /metrics; with it disabled, /pilot is 404.
func TestDaemonPilotEndpoint(t *testing.T) {
	srv, ts := startServer(t, daemon.Config{
		PilotEvery:    5 * time.Millisecond,
		PilotWindow:   4096,
		ResponseBound: 64,
	})
	flows := make([]switchnet.Flow, 300)
	for i := range flows {
		flows[i] = switchnet.Flow{In: i % 8, Out: (i + 1) % 8, Demand: 1}
	}
	if code, body := postFlows(t, ts.URL, flows); code != http.StatusAccepted {
		t.Fatalf("ingest: %d %q", code, body)
	}
	sum, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed == 0 {
		t.Fatal("nothing completed")
	}
	// Drain waits out the pilot's final evaluation, so the status is
	// settled and covers the completions.
	var st pilot.Status
	if code := getJSON(t, ts.URL+"/pilot", &st); code != http.StatusOK {
		t.Fatalf("/pilot status %d", code)
	}
	if st.Evaluations == 0 || st.WindowFlows == 0 {
		t.Fatalf("pilot never evaluated: %+v", st)
	}
	if !st.Sane() {
		t.Fatalf("pilot ratios unsound: %+v", st)
	}
	if st.TotalRatio < 1 || math.IsInf(st.TotalRatio, 0) {
		t.Fatalf("total competitive ratio %v, want finite >= 1", st.TotalRatio)
	}
	if st.MaxRatio < 1 || math.IsInf(st.MaxRatio, 0) {
		t.Fatalf("max competitive ratio %v, want finite >= 1", st.MaxRatio)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`flowsched_pilot_competitive_ratio{objective="total"}`,
		`flowsched_pilot_evaluations_total`,
		`flowsched_response_slow_total`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// No pilot configured: the endpoint says so.
	_, ts2 := startServer(t, daemon.Config{})
	if code := getJSON(t, ts2.URL+"/pilot", nil); code != http.StatusNotFound {
		t.Fatalf("disabled pilot endpoint returned %d, want 404", code)
	}
}
