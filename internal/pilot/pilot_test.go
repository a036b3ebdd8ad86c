package pilot_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"flowsched/internal/core"
	"flowsched/internal/pilot"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// TestPilotBoundedReplay is the acceptance pin for the competitive-ratio
// gauge: replay a finite instance with a pilot window covering every
// completion, then check the published ratios are finite and >= 1
// against lower bounds recomputed independently from the original
// instance — the pilot's window then holds exactly the instance's flow
// multiset, so its bounds must agree with the offline recomputation to
// the unit.
func TestPilotBoundedReplay(t *testing.T) {
	inst := workload.PoissonConfig{M: 6, T: 30, Ports: 5}.Generate(rand.New(rand.NewSource(19)))
	n := inst.N()
	if n == 0 {
		t.Fatal("empty generated instance")
	}
	p, err := pilot.New(inst.Switch, pilot.Config{Window: 4 * n})
	if err != nil {
		t.Fatal(err)
	}
	src := workload.NewInstanceSource(inst)
	rt, err := stream.New(src, stream.Config{
		Switch:     inst.Switch,
		Policy:     stream.ByName("RoundRobin"),
		Shards:     1,
		OnSchedule: p.OnSchedule,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Bind(rt)
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := p.Evaluate(context.Background())
	if st.WindowFlows != n {
		t.Fatalf("window holds %d flows, instance has %d", st.WindowFlows, n)
	}
	if st.AchievedTotalResponse != sum.TotalResponse {
		t.Fatalf("achieved total %d != summary total %d", st.AchievedTotalResponse, sum.TotalResponse)
	}
	if st.AchievedMaxResponse != sum.MaxResponse {
		t.Fatalf("achieved max %d != summary max %d", st.AchievedMaxResponse, sum.MaxResponse)
	}
	// Independent recomputation from the untouched offline instance.
	if want := core.SRPTLowerBound(inst); st.TotalLowerBound != want {
		t.Fatalf("total lower bound %d, offline recomputation %d", st.TotalLowerBound, want)
	}
	if want := core.TrivialMRTLowerBound(inst); st.MaxLowerBound != want {
		t.Fatalf("max lower bound %d, offline recomputation %d", st.MaxLowerBound, want)
	}
	if !st.Sane() {
		t.Fatalf("ratio invariant violated: %+v", st)
	}
	if st.TotalRatio < 1 || st.MaxRatio < 1 {
		t.Fatalf("competitive ratios below 1: total %v, max %v", st.TotalRatio, st.MaxRatio)
	}
	// The run has drained, so the post-run pending snapshot (served by
	// the direct quiescent read) must be empty with no backlog bound.
	if st.SnapshotErrors != 0 || st.PendingFlows != 0 || st.BacklogBoundRounds != 0 {
		t.Fatalf("drained run reports pending state: %+v", st)
	}
}

// TestPilotWindowWrap: with a window smaller than the run, the ratios
// stay sound — the sub-instance soundness argument holds for any
// completion subset.
func TestPilotWindowWrap(t *testing.T) {
	inst := workload.PoissonConfig{M: 8, T: 60, Ports: 4}.Generate(rand.New(rand.NewSource(23)))
	const window = 16
	if inst.N() <= window {
		t.Fatalf("instance too small (%d flows) to wrap a %d window", inst.N(), window)
	}
	p, err := pilot.New(inst.Switch, pilot.Config{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	src := workload.NewInstanceSource(inst)
	rt, err := stream.New(src, stream.Config{
		Switch:     inst.Switch,
		Policy:     stream.ByName("OldestFirst"),
		Shards:     1,
		OnSchedule: p.OnSchedule,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Bind(rt)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	st := p.Evaluate(context.Background())
	if st.WindowFlows != window {
		t.Fatalf("window holds %d flows, want %d", st.WindowFlows, window)
	}
	if !st.Sane() || st.TotalRatio < 1 || st.MaxRatio < 1 {
		t.Fatalf("wrapped-window ratios unsound: %+v", st)
	}
}

// TestPilotRefusesOversizedWindow: a window past obs.MaxRecords is an
// error from New, before the ring is sized from it.
func TestPilotRefusesOversizedWindow(t *testing.T) {
	if _, err := pilot.New(switchnet.UnitSwitch(4), pilot.Config{Window: math.MaxInt}); err == nil {
		t.Fatal("pilot.New accepted Window: math.MaxInt")
	}
}

// TestPilotConcurrentEvaluate runs the evaluator against a live writer
// under the race detector: the ring's discard protocol must keep every
// evaluation self-consistent with no synchronization from the writer.
func TestPilotConcurrentEvaluate(t *testing.T) {
	sw := switchnet.UnitSwitch(8)
	p, err := pilot.New(sw, pilot.Config{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := p.Evaluate(context.Background())
			if st.WindowFlows > 64 {
				t.Errorf("window overflow: %d", st.WindowFlows)
				return
			}
		}
	}()
	for k := 0; k < 100_000; k++ {
		f := switchnet.Flow{In: k % 8, Out: (k / 8) % 8, Demand: 1, Release: k / 8}
		p.OnSchedule(int64(k), f, k/8+1)
	}
	close(stop)
	wg.Wait()
}

// TestPilotHookZeroAlloc pins the coordinator-side cost contract: the
// completion hook must never allocate.
func TestPilotHookZeroAlloc(t *testing.T) {
	p, err := pilot.New(switchnet.UnitSwitch(4), pilot.Config{Window: 32})
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	allocs := testing.AllocsPerRun(1000, func() {
		p.OnSchedule(int64(k), switchnet.Flow{In: k % 4, Out: k % 4, Demand: 1, Release: k}, k+1)
		k++
	})
	if allocs != 0 {
		t.Fatalf("OnSchedule performed %v allocs, want 0", allocs)
	}
}

// TestPilotRunLoop smoke-tests the ticker loop: it evaluates at its
// cadence and once more on cancellation.
func TestPilotRunLoop(t *testing.T) {
	p, err := pilot.New(switchnet.UnitSwitch(4), pilot.Config{Window: 32, Every: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		p.Run(ctx)
		close(done)
	}()
	deadline := time.After(5 * time.Second)
	for p.Status().Evaluations < 3 {
		select {
		case <-deadline:
			t.Fatal("pilot never evaluated")
		case <-time.After(time.Millisecond):
		}
	}
	before := p.Status().Evaluations
	cancel()
	<-done
	if after := p.Status().Evaluations; after <= before {
		t.Fatalf("no final evaluation on cancel: %d -> %d", before, after)
	}
}

// TestPilotSnapshotsParkedRuntime: a live runtime that has drained its
// ChanSource feed parks in Park, and the pilot's pending-set snapshot
// still lands, because the request wakes the park: no snapshot error,
// and an empty backlog.
func TestPilotSnapshotsParkedRuntime(t *testing.T) {
	const ports, n = 4, 8
	sw := switchnet.UnitSwitch(ports)
	p, err := pilot.New(sw, pilot.Config{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	src := workload.NewChanSource(16)
	rt, err := stream.New(src, stream.Config{Switch: sw, Policy: stream.ByName("RoundRobin"), OnSchedule: p.OnSchedule})
	if err != nil {
		t.Fatal(err)
	}
	p.Bind(rt)
	runDone := make(chan error, 1)
	go func() {
		_, err := rt.Run()
		runDone <- err
	}()
	for k := 0; k < n; k++ {
		src.Push(switchnet.Flow{In: k % ports, Out: (k + 1) % ports, Demand: 1})
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.Snapshot().Completed < n {
		if time.Now().After(deadline) {
			t.Fatal("runtime never drained the pushed flows")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		st := p.Evaluate(context.Background())
		if st.SnapshotErrors != 0 || st.PendingFlows != 0 {
			t.Fatalf("evaluation %d of a parked runtime: %d snapshot errors, %d pending flows, want 0 and 0",
				i, st.SnapshotErrors, st.PendingFlows)
		}
		if st.WindowFlows != n {
			t.Fatalf("evaluation %d: window holds %d completions, want %d", i, st.WindowFlows, n)
		}
	}
	rt.Stop()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not end the parked run")
	}
}
