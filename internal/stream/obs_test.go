package stream_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"flowsched/internal/obs"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// TestStreamFlightRecorderTrace replays a finite workload with a flight
// recorder large enough to hold the whole run and checks the trace's
// accounting against the final summary: rounds strictly increasing, the
// per-round Arrived/Scheduled/Dropped/Expired columns summing to the
// cumulative counters, no phase time negative (and no turn ordering at
// one shard), and the final record's pending count at zero.
func TestStreamFlightRecorderTrace(t *testing.T) {
	inst := workload.PoissonConfig{M: 6, T: 40, Ports: 6}.Generate(rand.New(rand.NewSource(11)))
	for _, shards := range []int{1, 2} {
		rec := obs.NewFlightRecorder(1 << 14)
		src := workload.NewInstanceSource(inst)
		rt, err := stream.New(src, stream.Config{
			Switch:      inst.Switch,
			Policy:      stream.ByName("RoundRobin"),
			Shards:      shards,
			Recorder:    rec,
			VerifyEvery: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		recs := rec.Last(nil, rec.Cap())
		if int64(len(recs)) != sum.Rounds {
			t.Fatalf("K=%d: trace has %d records, summary counted %d scheduling rounds", shards, len(recs), sum.Rounds)
		}
		var arrived, scheduled, dropped, expired int64
		for i, r := range recs {
			if i > 0 && r.Round <= recs[i-1].Round {
				t.Fatalf("K=%d: trace rounds not strictly increasing: %d after %d", shards, r.Round, recs[i-1].Round)
			}
			arrived += r.Arrived
			scheduled += r.Scheduled
			dropped += r.Dropped
			expired += r.Expired
			if r.ProposeNS < 0 || r.ReconcileNS < 0 || r.ApplyNS < 0 || r.VerifyNS < 0 {
				t.Fatalf("K=%d: negative phase time in %+v", shards, r)
			}
			if shards == 1 && r.ReconcileNS != 0 {
				t.Fatalf("K=1: a turn-ordering time in %+v", r)
			}
		}
		if arrived != sum.Admitted {
			t.Fatalf("K=%d: trace arrivals %d != admitted %d", shards, arrived, sum.Admitted)
		}
		if scheduled != sum.Completed {
			t.Fatalf("K=%d: trace schedules %d != completed %d", shards, scheduled, sum.Completed)
		}
		if dropped != 0 || expired != 0 {
			t.Fatalf("K=%d: lossless run traced %d drops, %d expiries", shards, dropped, expired)
		}
		if last := recs[len(recs)-1]; last.Pending != 0 {
			t.Fatalf("K=%d: drained run's final record still shows %d pending", shards, last.Pending)
		}
	}
}

// TestVerifyTimeOnItsOwnRound: a round's check runs before its record is
// written, so the record carries its own VerifyNS. One round drains 64
// unit flows, one per port pair of an 8x8 switch with capacity 8, so the
// run emits a single record, and no later record could carry the check.
func TestVerifyTimeOnItsOwnRound(t *testing.T) {
	const ports = 8
	inst := switchnet.Instance{Switch: switchnet.NewSwitch(ports, ports, ports)}
	for i := 0; i < ports; i++ {
		for j := 0; j < ports; j++ {
			inst.Flows = append(inst.Flows, switchnet.Flow{In: i, Out: j, Demand: 1})
		}
	}
	rec := obs.NewFlightRecorder(16)
	rt, err := stream.New(workload.NewInstanceSource(&inst), stream.Config{
		Switch:      inst.Switch,
		Policy:      stream.ByName("OldestFirst"),
		Recorder:    rec,
		VerifyEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != ports*ports || sum.WindowsVerified != 1 {
		t.Fatalf("completed %d flows over %d verified windows, want %d over 1", sum.Completed, sum.WindowsVerified, ports*ports)
	}
	recs := rec.Last(nil, rec.Cap())
	if len(recs) != 1 || recs[0].Scheduled != ports*ports {
		t.Fatalf("trace %+v, want one record scheduling %d flows", recs, ports*ports)
	}
	if recs[0].VerifyNS <= 0 {
		t.Fatalf("the round's record carries VerifyNS %d, want its own check's time", recs[0].VerifyNS)
	}
}

// TestStreamSlowResponses cross-checks Summary.SlowResponses against an
// independent per-completion count reconstructed through OnSchedule.
func TestStreamSlowResponses(t *testing.T) {
	inst := workload.PoissonConfig{M: 8, T: 30, Ports: 4}.Generate(rand.New(rand.NewSource(7)))
	const bound = 2
	var want int64
	src := workload.NewInstanceSource(inst)
	rt, err := stream.New(src, stream.Config{
		Switch:        inst.Switch,
		Policy:        stream.ByName("RoundRobin"),
		Shards:        1,
		ResponseBound: bound,
		OnSchedule: func(seq int64, f switchnet.Flow, round int) {
			if round+1-f.Release > bound {
				want++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.SlowResponses != want {
		t.Fatalf("SlowResponses %d, independent count %d", sum.SlowResponses, want)
	}
	if want == 0 {
		t.Fatal("workload produced no slow completions; the bound is not binding")
	}
	if sum.SlowResponses >= sum.Completed {
		t.Fatalf("every completion slow (%d of %d): bound not meaningful", sum.SlowResponses, sum.Completed)
	}
}

// TestPendingFlowsSnapshot exercises both service paths of PendingFlows:
// mid-run requests answered by the coordinator between rounds, and the
// direct read of quiescent state after Run returns (which must be empty
// for a drained run).
func TestPendingFlowsSnapshot(t *testing.T) {
	inst := workload.PoissonConfig{M: 10, T: 200, Ports: 6}.Generate(rand.New(rand.NewSource(3)))
	src := workload.NewInstanceSource(inst)
	rt, err := stream.New(src, stream.Config{
		Switch: inst.Switch,
		Policy: stream.ByName("RoundRobin"),
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var buf []switchnet.Flow
		for i := 0; i < 50; i++ {
			flows, round, err := rt.PendingFlows(ctx, buf)
			if err != nil {
				t.Errorf("mid-run PendingFlows: %v", err)
				return
			}
			buf = flows
			for _, f := range flows {
				if f.Release > round {
					t.Errorf("pending snapshot at round %d contains unreleased flow %+v", round, f)
					return
				}
				if err := inst.Switch.ValidateFlow(f); err != nil {
					t.Errorf("pending snapshot contains invalid flow: %v", err)
					return
				}
			}
		}
	}()
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	<-probed
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	flows, round, err := rt.PendingFlows(ctx, nil)
	if err != nil {
		t.Fatalf("post-run PendingFlows: %v", err)
	}
	if len(flows) != 0 {
		t.Fatalf("drained run reports %d pending flows", len(flows))
	}
	if round != sum.Round {
		t.Fatalf("post-run snapshot round %d != summary round %d", round, sum.Round)
	}
}
