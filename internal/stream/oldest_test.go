package stream

import (
	"math/rand"
	"testing"

	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// ofRun drains src under OldestFirst with the given stage target (0 is
// the default) and returns the OnSchedule (seq, round) stream, the
// policy with its counters, and how many rounds both cut and fell back
// to the comparison sort.
func ofRun(t *testing.T, src Source, sw switchnet.Switch, maxPending, factor int) (trace [][2]int64, pol *OldestFirst, met int) {
	t.Helper()
	pol = &OldestFirst{factor: factor}
	rt, err := New(src, Config{
		Switch: sw, Policy: pol, MaxPending: maxPending,
		OnSchedule: func(seq int64, _ switchnet.Flow, round int) {
			trace = append(trace, [2]int64{seq, int64(round)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		stages, sorts := pol.stages, pol.sorts
		done, err := rt.step()
		if err != nil {
			t.Fatal(err)
		}
		// One shard picks once a round, so both in one step is one pick.
		if pol.stages-stages > 1 && pol.sorts > sorts {
			met++
		}
		if done {
			break
		}
	}
	if rt.peak != maxPending {
		t.Fatalf("backlog peaked at %d, want the admission limit %d", rt.peak, maxPending)
	}
	return trace, pol, met
}

func sameTrace(t *testing.T, got, want [][2]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d flows scheduled, the uncut pick schedules %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("serve %d is (seq, round) %v, the uncut pick serves %v", i, got[i], want[i])
		}
	}
}

// TestOldestFirstStagesAtDepth runs the pick where it is meant to stage
// — a 64x64 unit switch at twice its service rate with 8k flows
// resident, so some 3.5k VOQs are active against a stage target of
// 16 x 64 — at the default target, which nothing else in the suite
// reaches: it must cut (more stages than the uncut pick runs on the same
// schedule), order fewer heads for it, and serve exactly what the uncut
// pick serves.
func TestOldestFirstStagesAtDepth(t *testing.T) {
	const ports, backlog, flows = 64, 8192, 40000
	src := func() Source {
		return workload.NewArrivalSource(workload.ArrivalConfig{Ports: ports, M: 2 * ports, MaxFlows: flows},
			rand.New(rand.NewSource(1)))
	}
	sw := switchnet.UnitSwitch(ports)
	want, uncut, _ := ofRun(t, src(), sw, backlog, 1<<20)
	got, staged, _ := ofRun(t, src(), sw, backlog, 0)
	sameTrace(t, got, want)
	if staged.stages <= uncut.stages {
		t.Fatalf("%d stages at the default target, %d uncut: the pick never staged", staged.stages, uncut.stages)
	}
	if 2*staged.ordered > uncut.ordered {
		t.Fatalf("staging ordered %d heads, the uncut pick %d: want under half", staged.ordered, uncut.ordered)
	}
}

// TestOldestFirstWideSpanMeetsCut puts the two ways a stage can be shaped
// badly for counting into one pick. Every input holds a long queue for
// output 0, released at the start of a phase and served one flow a
// round, so the oldest heads stay over a thousand rounds old while a
// backlog of recent flows keeps some five hundred other VOQs active: the
// default target cuts (8 inputs, 64 outputs), and the first stage spans
// from the old release to a recent one — far wider than its candidate
// count, which is the comparison-sort fallback. A second phase follows an
// idle jump past 2^40, so the same happens at release values the
// counting pass could never index. The schedule must be the uncut pick's.
func TestOldestFirstWideSpanMeetsCut(t *testing.T) {
	const nIn, nOut, hot, burst, perRound, rounds, backlog = 8, 64, 1400, 5000, 12, 1400, 8192
	rng := rand.New(rand.NewSource(7))
	var flows []switchnet.Flow
	for _, base := range []int{0, 1 << 40} {
		for i := 0; i < hot; i++ {
			flows = append(flows, switchnet.Flow{In: i % nIn, Out: 0, Demand: 1, Release: base})
		}
		for r := 0; r < rounds; r++ {
			n := perRound
			if r == 0 {
				n = burst
			}
			for i := 0; i < n; i++ {
				flows = append(flows, switchnet.Flow{In: rng.Intn(nIn), Out: 1 + rng.Intn(nOut-1), Demand: 1, Release: base + r})
			}
		}
	}
	sw := switchnet.NewSwitch(nIn, nOut, 1)
	want, _, _ := ofRun(t, &sliceSource{flows: flows}, sw, backlog, 1<<20)
	got, _, met := ofRun(t, &sliceSource{flows: flows}, sw, backlog, 0)
	sameTrace(t, got, want)
	if met == 0 {
		t.Fatal("no pick both cut and fell back to the comparison sort")
	}
	if last := want[len(want)-1][1]; last < 1<<40 {
		t.Fatalf("last serve in round %d: the stream never jumped", last)
	}
}
