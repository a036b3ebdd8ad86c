package stream_test

import (
	"fmt"
	"testing"

	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// diagonalFlows builds a deterministic overload on the diagonal port
// pairs of a unit switch: every round releases perPort flows on each
// (i, i), cycling port by port so any admitted prefix stays evenly
// distributed. Diagonal traffic decouples the ports — every input has
// exactly one VOQ and no two VOQs share an output — so any
// work-conserving policy serves each active VOQ's head every round and
// the schedule (hence every drop and expiry decision) is independent of
// the shard count.
func diagonalFlows(ports, perPort, rounds int) []switchnet.Flow {
	var fs []switchnet.Flow
	for r := 0; r < rounds; r++ {
		for g := 0; g < perPort; g++ {
			for p := 0; p < ports; p++ {
				fs = append(fs, switchnet.Flow{In: p, Out: p, Demand: 1, Release: r})
			}
		}
	}
	return fs
}

// replayDiagonal is the arithmetic reference for diagonal traffic: per
// round, consume every released flow (dropping on a full pending set when
// maxPending binds), expire queue heads past the deadline, then serve one
// flow per non-empty port queue. It mirrors the runtime's per-round order
// — admission sees the previous round's departures, expiry runs before
// the pick — without any of its machinery.
func replayDiagonal(flows []switchnet.Flow, ports, maxPending, deadline int) (completed, dropped, expired, maxResp int) {
	queues := make([][]int, ports)
	count, i := 0, 0
	for r := 0; ; r++ {
		for i < len(flows) && flows[i].Release <= r {
			f := flows[i]
			i++
			if maxPending > 0 && count >= maxPending {
				dropped++
				continue
			}
			queues[f.In] = append(queues[f.In], f.Release)
			count++
		}
		if deadline > 0 {
			for p := range queues {
				for len(queues[p]) > 0 && queues[p][0] < r+1-deadline {
					queues[p] = queues[p][1:]
					expired++
					count--
				}
			}
		}
		for p := range queues {
			if len(queues[p]) > 0 {
				if resp := r + 1 - queues[p][0]; resp > maxResp {
					maxResp = resp
				}
				queues[p] = queues[p][1:]
				completed++
				count--
			}
		}
		if i >= len(flows) && count == 0 {
			return
		}
	}
}

// runPinned drives flows through the runtime at shard count K and returns
// the summary plus the (seq, round) schedule trace.
func runPinned(t *testing.T, flows []switchnet.Flow, ports, K int, pol stream.Policy, cfg stream.Config) (*stream.Summary, [][2]int64) {
	t.Helper()
	var trace [][2]int64
	cfg.Switch = switchnet.UnitSwitch(ports)
	cfg.Policy = pol
	cfg.Shards = K
	cfg.OnSchedule = func(seq int64, _ switchnet.Flow, round int) {
		trace = append(trace, [2]int64{seq, int64(round)})
	}
	rt, err := stream.New(&sliceSource{flows: flows}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return sum, trace
}

// TestAdmitDropPinnedCrossK pins AdmitDrop's shed counts against the
// arithmetic reference on a deterministic diagonal overload, at K in
// {1, 2}, verifier-clean, with bit-identical schedules across repeat runs.
func TestAdmitDropPinnedCrossK(t *testing.T) {
	const ports, perPort, rounds, maxPending = 4, 2, 20, 8
	flows := diagonalFlows(ports, perPort, rounds)
	wantC, wantD, _, _ := replayDiagonal(flows, ports, maxPending, 0)
	if wantD == 0 {
		t.Fatal("reference replay saw no drops — the workload is not overloaded")
	}
	for _, name := range []string{"RoundRobin", "OldestFirst"} {
		for _, K := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/K%d", name, K), func(t *testing.T) {
				cfg := stream.Config{MaxPending: maxPending, Admit: stream.AdmitDrop, VerifyEvery: 4}
				sum, trace := runPinned(t, flows, ports, K, stream.ByName(name), cfg)
				if sum.Admitted != int64(len(flows)) {
					t.Fatalf("admitted %d, want every consumed flow (%d)", sum.Admitted, len(flows))
				}
				if sum.Dropped != int64(wantD) || sum.Completed != int64(wantC) {
					t.Fatalf("dropped %d / completed %d, reference pins %d / %d",
						sum.Dropped, sum.Completed, wantD, wantC)
				}
				if sum.Pending != 0 || sum.Expired != 0 {
					t.Fatalf("drained drop-mode run left pending %d, expired %d", sum.Pending, sum.Expired)
				}
				if sum.Admitted != sum.Completed+int64(sum.Pending)+sum.Dropped+sum.Expired {
					t.Fatalf("accounting unbalanced: %+v", sum)
				}
				if sum.PeakPending > maxPending {
					t.Fatalf("peak pending %d exceeds the admission limit %d", sum.PeakPending, maxPending)
				}
				if sum.WindowsVerified == 0 {
					t.Fatal("no verification windows ran")
				}
				_, again := runPinned(t, flows, ports, K, stream.ByName(name), cfg)
				if len(trace) != len(again) {
					t.Fatalf("nondeterministic: %d then %d scheduled flows", len(trace), len(again))
				}
				for i := range trace {
					if trace[i] != again[i] {
						t.Fatalf("nondeterministic at serve %d: %v then %v", i, trace[i], again[i])
					}
				}
			})
		}
	}
}

// TestAdmitDeadlinePinnedCrossK pins AdmitDeadline's expiry counts against
// the arithmetic reference: flows that cannot complete within the deadline
// leave unscheduled, every completed flow's response stays within it, and
// the counts are identical at K in {1, 2} and across repeat runs.
func TestAdmitDeadlinePinnedCrossK(t *testing.T) {
	const ports, perPort, rounds, deadline = 4, 2, 20, 3
	flows := diagonalFlows(ports, perPort, rounds)
	wantC, _, wantE, wantMax := replayDiagonal(flows, ports, 0, deadline)
	if wantE == 0 {
		t.Fatal("reference replay saw no expiries — the workload is not overloaded")
	}
	if wantMax > deadline {
		t.Fatalf("reference violates its own deadline: max response %d > %d", wantMax, deadline)
	}
	for _, name := range []string{"RoundRobin", "OldestFirst"} {
		for _, K := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/K%d", name, K), func(t *testing.T) {
				cfg := stream.Config{Admit: stream.AdmitDeadline, Deadline: deadline, VerifyEvery: 4}
				sum, trace := runPinned(t, flows, ports, K, stream.ByName(name), cfg)
				if sum.Admitted != int64(len(flows)) {
					t.Fatalf("admitted %d, want %d", sum.Admitted, len(flows))
				}
				if sum.Expired != int64(wantE) || sum.Completed != int64(wantC) {
					t.Fatalf("expired %d / completed %d, reference pins %d / %d",
						sum.Expired, sum.Completed, wantE, wantC)
				}
				if sum.Pending != 0 || sum.Dropped != 0 {
					t.Fatalf("drained deadline-mode run left pending %d, dropped %d", sum.Pending, sum.Dropped)
				}
				if sum.Admitted != sum.Completed+int64(sum.Pending)+sum.Dropped+sum.Expired {
					t.Fatalf("accounting unbalanced: %+v", sum)
				}
				if sum.MaxResponse > deadline {
					t.Fatalf("completed flow exceeded the deadline: max response %d > %d", sum.MaxResponse, deadline)
				}
				if sum.MaxResponse != wantMax {
					t.Fatalf("max response %d, reference pins %d", sum.MaxResponse, wantMax)
				}
				if sum.WindowsVerified == 0 {
					t.Fatal("no verification windows ran")
				}
				_, again := runPinned(t, flows, ports, K, stream.ByName(name), cfg)
				if len(trace) != len(again) {
					t.Fatalf("nondeterministic: %d then %d scheduled flows", len(trace), len(again))
				}
				for i := range trace {
					if trace[i] != again[i] {
						t.Fatalf("nondeterministic at serve %d: %v then %v", i, trace[i], again[i])
					}
				}
			})
		}
	}
}
