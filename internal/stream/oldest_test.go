package stream

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// refOldest is the reference OldestFirst the tests hold the policy to:
// each pick heaps every active VOQ head of its scope by (release, input,
// output) and offers the minimum to View.Take until the heap is empty; a
// taken head's successor joins the heap, a head Take refuses blocks its
// queue for the round (strict FIFO). Nothing is carried between rounds.
type refOldest struct{}

type refFlow struct {
	id      ID
	rel     int64
	in, out int
}

// refHeap is a min-heap of refFlows in (release, input, output) order.
type refHeap []refFlow

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return cmp.Or(cmp.Compare(h[i].rel, h[j].rel), cmp.Compare(h[i].in, h[j].in), cmp.Compare(h[i].out, h[j].out)) < 0
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refFlow)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (refOldest) Name() string     { return "refOldest" }
func (refOldest) NewShard() Policy { return refOldest{} }

func (refOldest) Pick(v *View) {
	var h refHeap
	for a := range v.NumActiveInputs() {
		in := v.ActiveInput(a)
		for out := range v.Switch().NumOut() {
			if id := v.VOQHead(in, out); id != NoID {
				h = append(h, refFlow{id, v.Release(id), in, out})
			}
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		f := heap.Pop(&h).(refFlow)
		if next := v.VOQNext(f.id); v.Take(f.id) && next != NoID {
			heap.Push(&h, refFlow{next, v.Release(next), f.in, f.out})
		}
	}
}

// ofTrace drains src under pol at K shards and returns the OnSchedule
// (seq, round) stream.
func ofTrace(t *testing.T, src Source, sw switchnet.Switch, pol Policy, K, maxPending int) (trace [][2]int64, rt *Runtime) {
	t.Helper()
	rt, err := New(src, Config{
		Switch: sw, Policy: pol, Shards: K, MaxPending: maxPending, VerifyEvery: 16,
		OnSchedule: func(seq int64, _ switchnet.Flow, round int) {
			trace = append(trace, [2]int64{seq, int64(round)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return trace, rt
}

func sameTrace(t *testing.T, got, want [][2]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d flows scheduled, the reference schedules %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("serve %d is (seq, round) %v, the reference serves %v", i, got[i], want[i])
		}
	}
}

// visited sums the merge's examined entries over rt's OldestFirst
// instances.
func visited(rt *Runtime) (n int64) {
	for _, p := range rt.instances() {
		n += p.(*OldestFirst).visited
	}
	return n
}

// TestOldestFirstMatchesReferenceAtDepth runs the pick where the lists
// pay — a 64x64 unit switch at twice its service rate with 8k flows
// resident, so some 3.5k VOQs are active — and holds it to the
// reference: the same (seq, round) stream, while the merges examine
// fewer entries than half the heads the lists hold.
func TestOldestFirstMatchesReferenceAtDepth(t *testing.T) {
	const ports, backlog, flows = 64, 8192, 40000
	src := func() Source {
		return workload.NewArrivalSource(workload.ArrivalConfig{Ports: ports, M: 2 * ports, MaxFlows: flows},
			rand.New(rand.NewSource(1)))
	}
	sw := switchnet.UnitSwitch(ports)
	want, _ := ofTrace(t, src(), sw, refOldest{}, 1, backlog)
	got, rt := ofTrace(t, src(), sw, &OldestFirst{}, 1, backlog)
	sameTrace(t, got, want)
	if rt.peak != backlog {
		t.Fatalf("backlog peaked at %d, want the admission limit %d", rt.peak, backlog)
	}
	// Over the pinned phase some 3.5k heads are listed a round.
	if n, limit := visited(rt), int64(rt.round)*3500/2; n >= limit {
		t.Fatalf("the merges examined %d entries over %d rounds: want under %d", n, rt.round, limit)
	}
}

// TestOldestFirstWideSpanMatchesReference puts the bucket queue's awkward
// shapes into one pick. Every input holds a long queue for output 0,
// released at the start of a phase and served one flow a round, so the
// oldest heads stay over a thousand rounds old while a backlog of recent
// flows keeps some five hundred other VOQs active: each pick's releases
// span far more than the queue's window of 64, so it re-bases past the
// gap. Two more phases follow idle jumps, past 2^40 and to just short of
// 2^48: releases the keys' 40 bits cannot hold relative to the first
// phase's origin, so the lists must rebuild around a later one. The
// schedule must be the reference's.
func TestOldestFirstWideSpanMatchesReference(t *testing.T) {
	const nIn, nOut, hot, burst, perRound, rounds, backlog = 8, 64, 1400, 5000, 12, 1400, 8192
	rng := rand.New(rand.NewSource(7))
	var flows []switchnet.Flow
	for _, base := range []int{0, 1 << 40, 1<<48 - rounds/2} {
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
	want, _ := ofTrace(t, &sliceSource{flows: flows}, sw, refOldest{}, 1, backlog)
	got, _ := ofTrace(t, &sliceSource{flows: flows}, sw, &OldestFirst{}, 1, backlog)
	sameTrace(t, got, want)
	if last := want[len(want)-1][1]; last < 1<<48 {
		t.Fatalf("last serve in round %d: the stream never jumped", last)
	}
}

// TestOldestFirstReusedInstanceMatchesFresh holds the successor path to
// the reference: on multi-unit demands over capacities above one — a
// served head's successor re-entering its input's list, heads that do
// not fit abandoning their queues, demands past what a key holds — at K
// in {1, 2, 3}, the (seq, round) stream is the reference's. One instance reused for three runs at K=1
// (where the runtime picks with the value it was given) serves what a
// fresh one does, because Reset drops its lists.
func TestOldestFirstReusedInstanceMatchesFresh(t *testing.T) {
	for _, cfg := range []workload.PoissonConfig{
		{M: 40, T: 30, Ports: 9, Cap: 4, MaxDemand: 4},
		{M: 300, T: 24, Ports: 70, Cap: 2, MaxDemand: 2},
		{M: 40, T: 30, Ports: 9, Cap: 600, MaxDemand: 600},
	} {
		for _, K := range []int{1, 2, 3} {
			inst := cfg.Generate(rand.New(rand.NewSource(int64(K))))
			want, _ := ofTrace(t, workload.NewInstanceSource(inst), inst.Switch, refOldest{}, K, 0)
			if len(want) != inst.N() {
				t.Fatalf("%d ports K=%d: %d of %d flows scheduled", cfg.Ports, K, len(want), inst.N())
			}
			used := &OldestFirst{}
			for range 3 {
				got, _ := ofTrace(t, workload.NewInstanceSource(inst), inst.Switch, used, K, 0)
				sameTrace(t, got, want)
			}
		}
	}
}

// listProbe runs an OldestFirst and, at the start of each pick, once the
// lists have synced, holds every active input's list to a from-scratch
// build: that input's non-empty VOQs' heads, read from the arena, sorted
// by (release, output), with their demands. few and batch count the
// syncs that took each of sync's two paths.
type listProbe struct {
	t                  *testing.T
	p                  *OldestFirst
	checks, few, batch int
}

func (q *listProbe) Name() string              { return q.p.Name() }
func (q *listProbe) NewShard() Policy          { return &listProbe{t: q.t, p: &OldestFirst{}} }
func (q *listProbe) Reset(sw switchnet.Switch) { q.p.Reset(sw) }

func (q *listProbe) Pick(v *View) {
	for a := range v.NumActiveInputs() {
		in := v.ActiveInput(a)
		stale := 0
		for _, w := range v.staleWords(in) {
			stale += bits.OnesCount64(w)
		}
		if r := in / max(q.p.nk, 1); !q.p.built || stale == 0 {
		} else if !q.p.succ[r] && stale*ofFew <= int(q.p.n[r]) {
			q.few++
		} else {
			q.batch++
		}
	}
	q.p.refresh(v)
	rt, p := v.rt, q.p
	for a := range v.NumActiveInputs() {
		in := v.ActiveInput(a)
		var want [][3]int64
		for out := range rt.mOut {
			if h := rt.vqs[in*rt.mOut+out].head; h != noID {
				want = append(want, [3]int64{rt.ar.rec[h].rel, int64(out), int64(min(rt.ar.rec[h].dem, ofDemMax))})
			}
		}
		slices.SortFunc(want, func(a, b [3]int64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
		r := in / p.nk
		got := p.keys[r*p.mOut : r*p.mOut+int(p.n[r])]
		if len(got) != len(want) {
			q.t.Fatalf("round %d input %d: %d entries listed, %d VOQs active", rt.round, in, len(got), len(want))
		}
		for i, key := range got {
			e := [3]int64{int64(ofRel(key)) + p.rel0, int64(ofOut(key)), int64(ofDem(key))}
			if e != want[i] {
				q.t.Fatalf("round %d input %d entry %d: key %#x is (release, output) %v, a rebuild lists %v", rt.round, in, i, key, e, want[i])
			}
		}
	}
	q.checks++
	p.Pick(v)
}

// TestOldestFirstListsMatchRebuild is the differential check on the
// persistent lists: on Poisson arrivals at twice the switch's capacity
// (multi-unit demands at capacity 3, so served heads' successors re-enter
// the lists), at K in {1, 2, 3}, lossless and under a deadline that
// expires heads, every pick's synced lists must equal a from-scratch
// build — through a Reload to WeightedISLIP (whose headRow calls clear
// the stale bits the lists never see) and back, and across a checkpoint
// restored into a new runtime. Both of sync's paths and the successor
// path must have run.
func TestOldestFirstListsMatchRebuild(t *testing.T) {
	const ports, flows, maxPending = 24, 12000, 1 << 11
	for _, K := range []int{1, 2, 3} {
		for _, portCap := range []int{1, 3} {
			for _, deadline := range []int{0, 40} {
				t.Run(fmt.Sprintf("K%d/cap%d/deadline%d", K, portCap, deadline), func(t *testing.T) {
					cfg := Config{Switch: switchnet.NewSwitch(ports, ports, portCap), Shards: K, MaxPending: maxPending}
					if deadline > 0 {
						cfg.Admit, cfg.Deadline = AdmitDeadline, deadline
					}
					checks, few, batch, moved, builds := 0, 0, 0, int64(0), int64(0)
					tally := func(rt *Runtime) {
						for _, pol := range rt.instances() {
							if q, ok := pol.(*listProbe); ok {
								checks, few, batch = checks+q.checks, few+q.few, batch+q.batch
								moved += q.p.moved
								builds += q.p.builds
							}
						}
					}
					steps := func(rt *Runtime, n int) {
						for range n {
							if _, err := rt.step(); err != nil {
								t.Fatal(err)
							}
						}
					}
					reload := func(rt *Runtime, pol Policy) {
						tally(rt)
						if err := rt.Reload(context.Background(), ReloadConfig{
							Policy: pol, MaxPending: maxPending, Admit: cfg.Admit, Deadline: cfg.Deadline,
						}); err != nil {
							t.Fatal(err)
						}
					}
					src := func() *workload.ArrivalSource {
						return workload.NewArrivalSource(workload.ArrivalConfig{
							Ports: ports, Cap: portCap, M: 2 * ports, MaxFlows: flows, MaxDemand: portCap,
						}, rand.New(rand.NewSource(int64(K))))
					}
					cfg.Policy = &listProbe{t: t, p: &OldestFirst{}}
					rt, err := New(src(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					steps(rt, 60)
					reload(rt, ByName("WeightedISLIP"))
					steps(rt, 20)
					reload(rt, &listProbe{t: t, p: &OldestFirst{}})
					steps(rt, 40)
					st, err := rt.CheckpointState(context.Background(), nil)
					if err != nil {
						t.Fatal(err)
					}
					tally(rt)

					tail := src()
					workload.Skip(tail, st.SourceFlows())
					cfg.Policy, cfg.Resume = &listProbe{t: t, p: &OldestFirst{}}, &st
					rt, err = New(tail, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := rt.Run(); err != nil {
						t.Fatal(err)
					}
					tally(rt)
					if sum := rt.Snapshot(); sum.Completed == 0 || (deadline > 0) != (sum.Expired > 0) {
						t.Fatalf("vacuous run: %+v", sum)
					}
					// One build per instance and install: before the reload,
					// after it, after the restore.
					if builds != int64(3*K) || checks < 100 {
						t.Fatalf("%d builds, %d checked picks: want %d builds and the picks of a whole run", builds, checks, 3*K)
					}
					if (portCap > 1) != (moved > 0) || few == 0 || batch == 0 {
						t.Fatalf("capacity %d: the merges re-keyed %d successors; %d syncs one by one, %d in a batch", portCap, moved, few, batch)
					}
				})
			}
		}
	}
}
