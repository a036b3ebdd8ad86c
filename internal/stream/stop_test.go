package stream

import (
	"errors"
	"strings"
	"testing"
	"time"

	"flowsched/internal/obs"
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
// every pick retired (no shard holds a flow counted scheduled but not
// completed) and the accounting balanced — unsharded and sharded.
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
		if len(rt.takes) > 0 {
			t.Fatalf("K=%d: %d unretired picks after Stop", shards, len(rt.takes))
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

// failingSource is patternSource cut off after limit flows, ending with an
// error instead of a clean close.
type failingSource struct {
	patternSource
	limit int
	err   error
}

func (s *failingSource) Next() (switchnet.Flow, bool) {
	if s.i >= s.limit {
		return switchnet.Flow{}, false
	}
	return s.gen(), true
}

func (s *failingSource) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	for n := 0; n < max && s.round <= round && s.i < s.limit; n++ {
		dst = append(dst, s.gen())
	}
	return dst
}

func (s *failingSource) Err() error { return s.err }

// TestRunReturnsSourceError: a source that ends with an error fails the
// run with that error, verification on or off.
func TestRunReturnsSourceError(t *testing.T) {
	for _, verifyEvery := range []int{0, 8} {
		feedLost := errors.New("feed lost")
		src := &failingSource{patternSource: patternSource{ports: 8, per: 12}, limit: 600, err: feedLost}
		rt, err := New(src, Config{
			Switch:      switchnet.UnitSwitch(8),
			Policy:      ByName("RoundRobin"),
			MaxPending:  256,
			VerifyEvery: verifyEvery,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); !errors.Is(err, feedLost) {
			t.Fatalf("VerifyEvery=%d: run over a failing source returned %v", verifyEvery, err)
		}
	}
}

// TestInfeasibleRoundFailsInItsRound: an infeasible round (injected by
// zeroing the capacities the oracle checks against, since View.Take never
// produces one) ends the run in that round — round 0 here — not at its
// window's flush. The rejected round has still retired and been
// recorded, its check on its own record, so the runtime it leaves behind
// is quiescent, and no window was counted.
func TestInfeasibleRoundFailsInItsRound(t *testing.T) {
	for _, shards := range []int{1, 2} {
		rec := obs.NewFlightRecorder(16)
		rt, err := New(&patternSource{ports: 8, per: 12}, Config{
			Switch:      switchnet.UnitSwitch(8),
			Policy:      ByName("RoundRobin"),
			Shards:      shards,
			MaxPending:  256,
			VerifyEvery: 8,
			Recorder:    rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		clear(rt.caps)
		_, err = rt.Run()
		if err == nil || !strings.Contains(err.Error(), "stream: round 0 failed verification: ") {
			t.Fatalf("K=%d: run over zeroed capacities returned %v, want round 0 rejected", shards, err)
		}
		if rt.round != 0 {
			t.Fatalf("K=%d: round 0 rejected with the clock at round %d, want 0", shards, rt.round)
		}
		if rt.mWindows.Load() != 0 {
			t.Fatalf("K=%d: %d windows verified, want 0", shards, rt.mWindows.Load())
		}
		if len(rt.takes) > 0 {
			t.Fatalf("K=%d: %d unretired picks after the rejected round", shards, len(rt.takes))
		}
		if rt.mCompleted.Load() == 0 || int64(rt.count) != rt.mAdmitted.Load()-rt.mCompleted.Load() {
			t.Fatalf("K=%d: rejected round did not retire: completed %d, pending %d, admitted %d",
				shards, rt.mCompleted.Load(), rt.count, rt.mAdmitted.Load())
		}
		if last := rec.Last(nil, 16); len(last) != 1 || last[0].Round != 0 || last[0].VerifyNS <= 0 {
			t.Fatalf("K=%d: records %+v, want round 0's alone, carrying its check", shards, last)
		}
	}
}

// TestMidWindowFailureEndsItsRound: with the oracle's capacities zeroed
// from round 3's departures on, round 3 is rejected and the run ends in
// it, four rounds before its window would flush: no later round is
// scheduled, and the message names round 3.
func TestMidWindowFailureEndsItsRound(t *testing.T) {
	for _, shards := range []int{1, 2} {
		var rt *Runtime
		lastRound := -1
		rt, err := New(&patternSource{ports: 8, per: 12}, Config{
			Switch:      switchnet.UnitSwitch(8),
			Policy:      ByName("RoundRobin"),
			Shards:      shards,
			MaxPending:  256,
			VerifyEvery: 8,
			OnSchedule: func(_ int64, _ switchnet.Flow, round int) {
				lastRound = round
				if round == 3 {
					clear(rt.caps)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = rt.Run()
		if err == nil || !strings.Contains(err.Error(), "round 3:") {
			t.Fatalf("K=%d: run with round 3 infeasible returned %v, want round 3 named", shards, err)
		}
		if lastRound != 3 {
			t.Fatalf("K=%d: OnSchedule saw round %d after round 3 was rejected", shards, lastRound)
		}
		if rt.round != 3 {
			t.Fatalf("K=%d: round 3 rejected with the clock at round %d, want 3", shards, rt.round)
		}
		if rt.mWindows.Load() != 0 {
			t.Fatalf("K=%d: %d windows verified, want 0", shards, rt.mWindows.Load())
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
