package stream

import (
	"cmp"
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
// output) and offers the minimum to View.Take until the heap is empty or no
// input of the scope has room left, after which Take would refuse every
// head; a taken head's successor joins the heap, a head Take refuses blocks
// its queue for the round (strict FIFO). Nothing is carried between rounds.
type refOldest struct{}

type refFlow struct {
	id      ID
	rel     int64
	in, out int
}

// before is the heap's order: (release, input, output), which no two heads
// share, so the order the heap pops them in is the policy's whatever the
// heap's shape.
func (a *refFlow) before(b *refFlow) bool {
	if a.rel != b.rel {
		return a.rel < b.rel
	}
	if a.in != b.in {
		return a.in < b.in
	}
	return a.out < b.out
}

// refHeap is a binary min-heap of refFlows in before order.
type refHeap []refFlow

// down sifts entry i toward the leaves.
func (h refHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (h *refHeap) push(f refFlow) {
	*h = append(*h, f)
	for i := len(*h) - 1; i > 0; {
		p := (i - 1) / 2
		if !(*h)[i].before(&(*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *refHeap) pop() refFlow {
	old := *h
	top, n := old[0], len(old)-1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return top
}

func (refOldest) Name() string        { return "refOldest" }
func (refOldest) NewShard(int) Policy { return refOldest{} }

func (refOldest) Pick(v *View) {
	var h refHeap
	room := 0 // inputs of the scope with room left
	for a := range v.NumActiveInputs() {
		in := v.ActiveInput(a)
		if v.InputFree(in) > 0 {
			room++
		}
		for out := range v.Switch().NumOut() {
			if id := v.VOQHead(in, out); id != NoID {
				h = append(h, refFlow{id, v.Release(id), in, out})
			}
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h) > 0 && room > 0 {
		f := h.pop()
		next := v.VOQNext(f.id)
		if !v.Take(f.id) {
			continue
		}
		if v.InputFree(f.in) == 0 {
			room--
		}
		if next != NoID {
			h.push(refFlow{next, v.Release(next), f.in, f.out})
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

// visited sums the entries the picks examined over rt's OldestFirst
// instances: list entries, or on unit ports the window's input bitmaps
// at a release.
func visited(rt *Runtime) (n int64) {
	for _, p := range rt.instances() {
		n += p.(*OldestFirst).visited
	}
	return n
}

// TestOldestFirstMatchesReferenceAtDepth runs the pick where the window
// pays — a 64x64 unit switch at twice its service rate with 8k flows
// resident, so some 3.5k VOQs are active — and holds it to the
// reference: the same (seq, round) stream, while the picks examine
// fewer input bitmaps than half the heads the window holds.
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
	if !rt.pol.(*OldestFirst).windowed() {
		t.Fatal("OldestFirst on unit ports does not pick on the window")
	}
	if rt.peak != backlog {
		t.Fatalf("backlog peaked at %d, want the admission limit %d", rt.peak, backlog)
	}
	// Over the pinned phase some 3.5k heads are listed a round.
	if n, limit := visited(rt), int64(rt.round)*3500/2; n >= limit {
		t.Fatalf("the merges examined %d entries over %d rounds: want under %d", n, rt.round, limit)
	}
}

// TestOldestFirstWideSpanMatchesReference puts wide release spans into
// one pick. Every input holds a long queue for output 0, released at the
// start of a phase and served a flow or two a round, so the oldest heads
// stay hundreds of rounds old while a backlog of recent flows keeps some
// five hundred other VOQs active. On unit ports the window must double
// past its first 64 slots to span them; at capacity 2 each pick's
// releases span far more than the lists' bucket queue of 64, so it
// re-bases past the gap. Two more phases follow idle jumps, past 2^40
// and to just short of 2^48: releases the lists' keys cannot hold
// relative to the first phase's origin, so the lists must rebuild around
// a later one, while the window's slots wrap. On unit ports each phase's
// span outgrows the window's most slots, so the lists stand in until
// the next phase hands back to a window. At K in {1, 2}, with the
// layout held to a from-scratch build (listProbe) after every build and
// doubling and every 16th pick, the schedule must be the reference's.
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
	for _, K := range []int{1, 2} {
		for _, portCap := range []int{1, 2} {
			t.Run(fmt.Sprintf("K%d/cap%d", K, portCap), func(t *testing.T) {
				sw := switchnet.NewSwitch(nIn, nOut, portCap)
				want, _ := ofTrace(t, &sliceSource{flows: flows}, sw, refOldest{}, K, backlog)
				got, rt := ofTrace(t, &sliceSource{flows: flows}, sw, &listProbe{t: t, p: &OldestFirst{}, every: 16}, K, backlog)
				sameTrace(t, got, want)
				if last := want[len(want)-1][1]; last < 1<<48 {
					t.Fatalf("last serve in round %d: the stream never jumped", last)
				}
				for _, pol := range rt.instances() {
					q := pol.(*listProbe)
					if portCap == 1 && (q.p.grows == 0 || q.windows == 0 || q.windows == q.checks) {
						t.Fatalf("an instance doubled its window %d times and checked %d of %d picks on it: want doublings, and the lists standing in past its %d slots",
							q.p.grows, q.windows, q.checks, ofMaxSlots)
					}
					if portCap > 1 && q.p.builds < 3 {
						t.Fatalf("an instance built its lists %d times: want a rebuild after each jump", q.p.builds)
					}
				}
			})
		}
	}
}

// TestOldestFirstReusedInstanceMatchesFresh holds the successor path to
// the reference: on multi-unit demands over capacities above one — a
// served head's successor re-entering its input's list, heads that do
// not fit abandoning their queues, demands past what a key holds — at K
// in {1, 2, 3}, the (seq, round) stream is the reference's. One value
// reused for three runs serves what a fresh one does, because Reset drops
// the layout of the value (K=1) and of each instance it keeps (K > 1).
// Last, one value is carried across switch shapes and shard counts — unit
// ports at K=2, capacity 4 at K=3, unit ports at K=1 and unit ports at
// K=2 again, each switch of its own size — so its kept instances meet a
// switch unlike the one they last ran on, and every run must still match
// the reference.
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
	used := &OldestFirst{}
	for i, step := range []struct {
		cfg workload.PoissonConfig
		K   int
	}{
		{workload.PoissonConfig{M: 32, T: 100, Ports: 16, Cap: 1}, 2},
		{workload.PoissonConfig{M: 40, T: 30, Ports: 9, Cap: 4, MaxDemand: 4}, 3},
		{workload.PoissonConfig{M: 48, T: 60, Ports: 24, Cap: 1}, 1},
		{workload.PoissonConfig{M: 24, T: 100, Ports: 12, Cap: 1}, 2},
	} {
		inst := step.cfg.Generate(rand.New(rand.NewSource(int64(i))))
		want, _ := ofTrace(t, workload.NewInstanceSource(inst), inst.Switch, refOldest{}, step.K, 0)
		if len(want) != inst.N() {
			t.Fatalf("step %d: %d of %d flows scheduled", i, len(want), inst.N())
		}
		got, rt := ofTrace(t, workload.NewInstanceSource(inst), inst.Switch, used, step.K, 0)
		sameTrace(t, got, want)
		for _, p := range rt.instances() {
			if p := p.(*OldestFirst); p.windowed() != (step.cfg.Cap == 1) {
				t.Fatalf("step %d: an instance picks on the window: %v, want %v", i, p.windowed(), step.cfg.Cap == 1)
			}
		}
	}
}

// listProbe runs an OldestFirst and, at the start of each pick, once its
// layout has synced, holds it to a from-scratch build. On the lists, each
// active input's list must be that input's non-empty VOQs' heads, read
// from the arena, sorted by (release, output), with their demands; few
// and batch count the syncs that took each of sync's two paths. On the
// window, each active input's row must hold exactly its heads' bits (see
// checkWindow); windows counts those picks. every > 1 checks one pick in
// every, and always the first after a build or a rebuild for the span.
// Its instances wrap the instances its OldestFirst keeps, as the runtime's
// would.
type listProbe struct {
	t                           *testing.T
	p                           *OldestFirst
	every, picks                int
	laid                        int64
	checks, few, batch, windows int
}

func (q *listProbe) Name() string { return q.p.Name() }
func (q *listProbe) NewShard(k int) Policy {
	return &listProbe{t: q.t, p: q.p.NewShard(k).(*OldestFirst), every: q.every}
}
func (q *listProbe) Reset(sw switchnet.Switch) { q.p.Reset(sw) }

func (q *listProbe) Pick(v *View) {
	for a := range v.NumActiveInputs() {
		in := v.ActiveInput(a)
		stale := 0
		for _, w := range v.staleWords(in) {
			stale += bits.OnesCount64(w)
		}
		if r := in / max(q.p.nk, 1); q.p.windowed() || !q.p.built || stale == 0 {
		} else if !q.p.succ[r] && stale*ofFew <= int(q.p.n[r]) {
			q.few++
		} else {
			q.batch++
		}
	}
	q.p.refresh(v)
	if laid := q.p.builds + q.p.grows; laid != q.laid || q.every <= 1 || q.picks%q.every == 0 {
		if q.p.windowed() {
			q.checkWindow(v)
			q.windows++
		} else {
			q.checkLists(v)
		}
		q.checks++
		q.laid = laid
	}
	q.picks++
	q.p.Pick(v)
}

// checkLists holds every active input's synced list to a build from the
// arena's VOQ heads.
func (q *listProbe) checkLists(v *View) {
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
}

// checkWindow holds every active input's row of the synced window to a
// build from the arena's VOQ heads: each head's bit is set in the slot of
// its release, the row holds no other bit, and each slot's input bitmap
// marks the row exactly where the row has a bit.
func (q *listProbe) checkWindow(v *View) {
	rt, p := v.rt, q.p
	if span := p.newest - p.oldest; span < 0 || span >= int64(p.slots) {
		q.t.Fatalf("round %d: releases %d..%d pending, the window spans %d", rt.round, p.oldest, p.newest, p.slots)
	}
	listed := make([]int, v.NumActiveInputs())
	for a := range v.NumActiveInputs() {
		in := v.ActiveInput(a)
		r := in / p.nk
		for out := range rt.mOut {
			h := rt.vqs[in*rt.mOut+out].head
			if h == noID {
				continue
			}
			listed[a]--
			rel := rt.ar.rec[h].rel
			if rel < p.oldest || rel > p.newest {
				q.t.Fatalf("round %d: head (%d, %d) released at %d, outside the pending %d..%d", rt.round, in, out, rel, p.oldest, p.newest)
			}
			if s := p.slot(rel); p.win[s+p.rw+r*p.nw+out>>6]>>uint(out&63)&1 == 0 {
				q.t.Fatalf("round %d: head (%d, %d) released at %d is not in its slot", rt.round, in, out, rel)
			}
		}
	}
	for s := 0; s < len(p.win); s += p.stride {
		for a := range v.NumActiveInputs() {
			r := v.ActiveInput(a) / p.nk
			any := uint64(0)
			for _, w := range p.win[s+p.rw+r*p.nw : s+p.rw+(r+1)*p.nw] {
				listed[a] += bits.OnesCount64(w)
				any |= w
			}
			if marked := p.win[s+r>>6]>>uint(r&63)&1 == 1; marked != (any != 0) {
				q.t.Fatalf("round %d input %d slot %d: input bit %v over a row of %d outputs", rt.round, v.ActiveInput(a), s/p.stride, marked, any)
			}
		}
	}
	for a, n := range listed {
		if n != 0 {
			q.t.Fatalf("round %d input %d: %d more outputs listed than VOQs active", rt.round, v.ActiveInput(a), n)
		}
	}
}

// TestOldestFirstListsMatchRebuild is the differential check on the
// persistent layouts: on Poisson arrivals at twice the switch's capacity,
// at K in {1, 2, 3}, lossless and under a deadline that expires heads,
// every pick's synced layout must equal a from-scratch build — through a
// Reload to WeightedISLIP (whose headRow calls clear the stale bits the
// layout never sees) and back, and across a checkpoint restored into a
// new runtime. At capacity 1 every pick runs on the window; at capacity 3
// (multi-unit demands, so served heads' successors re-enter the lists)
// every pick runs on the lists, and both of sync's paths and the
// successor path must have run.
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
					checks, few, batch, windows, moved, builds := 0, 0, 0, 0, int64(0), int64(0)
					tally := func(rt *Runtime) {
						for _, pol := range rt.instances() {
							if q, ok := pol.(*listProbe); ok {
								checks, few, batch, windows = checks+q.checks, few+q.few, batch+q.batch, windows+q.windows
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
					if portCap == 1 && (windows != checks || moved > 0) {
						t.Fatalf("unit ports: %d of %d checked picks on the window, %d successors re-keyed", windows, checks, moved)
					}
					if portCap > 1 && (windows > 0 || moved == 0 || few == 0 || batch == 0) {
						t.Fatalf("capacity %d: %d picks on the window; the merges re-keyed %d successors; %d syncs one by one, %d in a batch", portCap, windows, moved, few, batch)
					}
				})
			}
		}
	}
}
