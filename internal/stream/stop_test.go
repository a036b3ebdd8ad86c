package stream

import (
	"context"
	"testing"
	"time"

	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// awaitProgress polls Snapshot until cond holds or the deadline passes.
func awaitProgress(t *testing.T, rt *Runtime, cond func(Summary) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(rt.Snapshot()) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for runtime progress")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStopMidRunSettlesOwedPicks is the headline-bugfix property: stopping
// an unbounded overloaded run mid-flight returns a final Summary with
// every owed pick retired (no flow counted scheduled but not completed),
// the verify goroutine joined, and the accounting balanced — at K = 1 and
// on the sharded worker pool.
func TestStopMidRunSettlesOwedPicks(t *testing.T) {
	for _, shards := range []int{1, 2} {
		src := &patternSource{ports: 8, per: 12}
		rt, err := New(src, Config{
			Switch:      switchnet.UnitSwitch(8),
			Policy:      ByName("RoundRobin"),
			Shards:      shards,
			MaxPending:  256,
			VerifyEvery: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sum *Summary
		var runErr error
		finished := make(chan struct{})
		go func() {
			sum, runErr = rt.Run()
			close(finished)
		}()
		awaitProgress(t, rt, func(s Summary) bool { return s.Completed > 0 })
		rt.Stop()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("K=%d: Run did not return after Stop", shards)
		}
		if runErr != nil {
			t.Fatalf("K=%d: stopped run failed: %v", shards, runErr)
		}
		if rt.owedApply() {
			t.Fatalf("K=%d: owed picks left unsettled after Stop", shards)
		}
		if rt.vpending {
			t.Fatalf("K=%d: verify goroutine not joined after Stop", shards)
		}
		if sum.Completed == 0 || sum.Pending == 0 {
			t.Fatalf("K=%d: stop mid-overload should leave both completions (%d) and pending flows (%d)",
				shards, sum.Completed, sum.Pending)
		}
		if rt.count != sum.Pending {
			t.Fatalf("K=%d: summary pending %d != runtime pending %d", shards, sum.Pending, rt.count)
		}
		if sum.Admitted != sum.Completed+int64(sum.Pending)+sum.Dropped+sum.Expired {
			t.Fatalf("K=%d: accounting unbalanced: admitted %d != completed %d + pending %d + dropped %d + expired %d",
				shards, sum.Admitted, sum.Completed, sum.Pending, sum.Dropped, sum.Expired)
		}
	}
}

// TestStopBeforeRun: a stop requested before Run must return immediately
// with an all-zero summary, never touching the source.
func TestStopBeforeRun(t *testing.T) {
	src := &patternSource{ports: 4, per: 4} // unbounded: any pull would hang the drain
	rt, err := New(src, Config{Switch: switchnet.UnitSwitch(4), Policy: ByName("RoundRobin")})
	if err != nil {
		t.Fatal(err)
	}
	rt.Stop()
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Admitted != 0 || sum.Completed != 0 || sum.Rounds != 0 {
		t.Fatalf("pre-stopped run did work: %+v", sum)
	}
}

// TestRunContextCancel wires Stop through context cancellation: a
// cancelled context ends the run cleanly with the final summary, not an
// error.
func TestRunContextCancel(t *testing.T) {
	src := &patternSource{ports: 8, per: 12}
	rt, err := New(src, Config{
		Switch:     switchnet.UnitSwitch(8),
		Policy:     ByName("OldestFirst"),
		MaxPending: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		awaitProgress(t, rt, func(s Summary) bool { return s.Completed > 0 })
		cancel()
	}()
	sum, err := rt.RunContext(ctx)
	if err != nil {
		t.Fatalf("cancelled run failed: %v", err)
	}
	if sum.Completed == 0 {
		t.Fatal("cancelled run completed nothing")
	}
	if sum.Admitted != sum.Completed+int64(sum.Pending) {
		t.Fatalf("accounting unbalanced after cancel: %+v", sum)
	}

	// Already-cancelled context: no work at all.
	rt2, err := New(&patternSource{ports: 4, per: 4}, Config{
		Switch: switchnet.UnitSwitch(4),
		Policy: ByName("RoundRobin"),
	})
	if err != nil {
		t.Fatal(err)
	}
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	sum, err = rt2.RunContext(done)
	if err != nil || sum.Rounds != 0 {
		t.Fatalf("pre-cancelled run: sum %+v, err %v", sum, err)
	}
}

// TestLiveSourceDrainAndClose runs the runtime over a concurrently-fed
// ChanSource: it must schedule pushed flows, park while the feed is idle
// instead of terminating, and end cleanly — fully drained — once the feed
// closes.
func TestLiveSourceDrainAndClose(t *testing.T) {
	const ports, total = 4, 400
	src := workload.NewChanSource(32)
	rt, err := New(src, Config{
		Switch:      switchnet.UnitSwitch(ports),
		Policy:      ByName("OldestFirst"),
		VerifyEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum *Summary
	var runErr error
	finished := make(chan struct{})
	go func() {
		sum, runErr = rt.Run()
		close(finished)
	}()
	for i := 0; i < total/2; i++ {
		src.Push(switchnet.Flow{In: i % ports, Out: (i + 1) % ports, Demand: 1})
	}
	// The runtime must drain the first burst and then park — not return.
	awaitProgress(t, rt, func(s Summary) bool { return s.Completed == total/2 })
	select {
	case <-finished:
		t.Fatal("runtime terminated on an idle live feed instead of parking")
	case <-time.After(10 * time.Millisecond):
	}
	for i := total / 2; i < total; i++ {
		src.Push(switchnet.Flow{In: i % ports, Out: (i + 1) % ports, Demand: 1})
	}
	src.Close()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the feed closed")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if sum.Admitted != total || sum.Completed != total || sum.Pending != 0 {
		t.Fatalf("closed feed not fully drained: %+v", sum)
	}
}

// TestAdmitConfigValidation pins the admission-mode construction errors
// and the flag spellings.
func TestAdmitConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{Switch: switchnet.UnitSwitch(2), Policy: ByName("RoundRobin")}
	}
	cfg := base()
	cfg.Deadline = 5 // without AdmitDeadline
	if _, err := New(emptySource{}, cfg); err == nil {
		t.Fatal("Deadline without AdmitDeadline accepted")
	}
	cfg = base()
	cfg.Admit = AdmitDeadline // without a Deadline
	if _, err := New(emptySource{}, cfg); err == nil {
		t.Fatal("AdmitDeadline without a Deadline accepted")
	}
	cfg = base()
	cfg.Admit = AdmitMode(99)
	if _, err := New(emptySource{}, cfg); err == nil {
		t.Fatal("unknown admission mode accepted")
	}
	for _, mode := range []AdmitMode{AdmitLossless, AdmitDrop, AdmitDeadline} {
		got, err := ParseAdmitMode(mode.String())
		if err != nil || got != mode {
			t.Fatalf("ParseAdmitMode(%q) = %v, %v", mode.String(), got, err)
		}
	}
	if got, err := ParseAdmitMode(""); err != nil || got != AdmitLossless {
		t.Fatalf("empty spelling = %v, %v; want the lossless default", got, err)
	}
	if _, err := ParseAdmitMode("sometimes"); err == nil {
		t.Fatal("bogus spelling accepted")
	}
}
