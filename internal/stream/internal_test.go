package stream

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"flowsched/internal/switchnet"
)

// TestArenaRecordLayout pins the arena's cache budget: the hot record is
// exactly 32 bytes — two to a cache line, none straddling two — because
// it carries the VOQ links beside the release, demand and ports, with the
// state bits folded into the ports' top bits: one record read gives a
// policy walking a queue both the feasibility fields and the step to the
// next flow. The cold column is a bare sequence number. The per-VOQ
// head-age record the age-aware policies sweep is 16 bytes: release and
// demand, four records to a cache line, and nothing from the cold column.
// A VOQ is its list's two ends, 8 bytes: it is empty when its head is.
func TestArenaRecordLayout(t *testing.T) {
	if s := unsafe.Sizeof(flowRec{}); s != 32 {
		t.Fatalf("flowRec is %d bytes, want exactly 32", s)
	}
	if s := unsafe.Sizeof(voqHead{}); s != 16 {
		t.Fatalf("voqHead is %d bytes, want exactly 16", s)
	}
	if s := unsafe.Sizeof(voqState{}); s != 8 {
		t.Fatalf("voqState is %d bytes, want exactly 8", s)
	}
	var a arena
	id := a.alloc()
	a.rec[id].rel = 1 << 40 // releases larger than int32 must survive
	if got := a.flow(id).Release; got != 1<<40 {
		t.Fatalf("release round-trips as %d, want %d", got, 1<<40)
	}
}

// TestISLIPCircDist pins the rotation tie-breaker: distance 0 is the
// pointer's successor, n-1 the pointer itself, and the -1 never-pointed
// state degrades to plain port order.
func TestISLIPCircDist(t *testing.T) {
	cases := []struct{ x, ptr, n, want int }{
		{0, -1, 4, 0}, {3, -1, 4, 3},
		{2, 1, 4, 0}, {1, 1, 4, 3}, {0, 1, 4, 2},
		{0, 3, 4, 0}, {3, 3, 4, 3},
	}
	for _, c := range cases {
		if got := circDist(c.x, c.ptr, c.n); got != c.want {
			t.Fatalf("circDist(%d, %d, %d) = %d, want %d", c.x, c.ptr, c.n, got, c.want)
		}
	}
	// wins: older release beats any distance; equal releases fall to the
	// pointer order.
	if !wins(1, 3, 2, 0, -1, 4) {
		t.Fatal("older release lost")
	}
	if wins(2, 0, 1, 3, -1, 4) {
		t.Fatal("younger release won")
	}
	if !wins(5, 2, 5, 0, 1, 4) {
		t.Fatal("pointer successor lost an equal-release tie")
	}
}

// emptySource yields nothing; for runtimes driven by hand in white-box
// tests.
type emptySource struct{}

func (emptySource) Next() (switchnet.Flow, bool) { return switchnet.Flow{}, false }
func (emptySource) Err() error                   { return nil }
func (emptySource) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	return dst
}

// TestNextActiveVOQWordBoundaries probes the active-VOQ bitmap across
// 64-bit word edges through nextActiveVOQ, the probe refRoundRobin sweeps
// with: with NumOut > 64 the per-input bitmap spans several words, and the
// ports 63/64 and 127/128 sit on opposite sides of word boundaries.
// Activation, circular probing (including wrap-around through a zero
// upper word), and drain-time bit clearing exactly at a word edge must
// all agree with the active lists.
func TestNextActiveVOQWordBoundaries(t *testing.T) {
	rt, err := New(emptySource{}, Config{
		Switch: switchnet.NewSwitch(1, 130, 1),
		Policy: &RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := int64(0)
	add := func(out int) {
		rt.admitFlow(&switchnet.Flow{In: 0, Out: out, Demand: 1}, seq)
		seq++
	}
	drain := func(out int) {
		id := rt.vqs[out].head
		if id == noID {
			t.Fatalf("VOQ (0, %d) empty before drain", out)
		}
		rt.depart(id)
	}
	probe := func(from, want int) {
		t.Helper()
		if got := nextActiveVOQ(&rt.view, 0, from); got != want {
			t.Fatalf("nextActiveVOQ(0, %d) = %d, want %d", from, got, want)
		}
	}

	for _, out := range []int{63, 64, 127, 128} {
		add(out)
	}
	probe(0, 63)    // word 0 interior -> last bit of word 0
	probe(63, 63)   // from == the set bit
	probe(64, 64)   // first bit of word 1
	probe(65, 127)  // word 1 interior -> last bit of word 1
	probe(127, 127) // last bit of word 1
	probe(128, 128) // first bit of word 2
	probe(129, 63)  // wrap: word 2 tail is empty, circle back to word 0

	drain(63) // clears the last bit of word 0
	probe(0, 64)
	probe(63, 64)
	drain(128) // clears the first bit of word 2
	probe(128, 64)
	drain(64) // clears the first bit of word 1
	probe(64, 127)
	probe(0, 127)
	drain(127) // clears the last live bit anywhere
	probe(0, -1)
	probe(129, -1)
	for i, w := range rt.actBits {
		if w != 0 {
			t.Fatalf("bitmap word %d left set after full drain: %x", i, w)
		}
	}

	// NumOut == 64: the single-word edge case, wrap from bit 63 to bit 0.
	rt, err = New(emptySource{}, Config{
		Switch: switchnet.NewSwitch(1, 64, 1),
		Policy: &RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	add(0)
	add(63)
	probe(1, 63)
	probe(63, 63)
	drain(63)
	probe(63, 0) // bit 63 cleared at the word edge; wrap finds bit 0
	probe(0, 0)
}

// TestVOQListModel drives the linked-list VOQs of one input through random
// admissions and departures — at the head, in the middle and at the tail
// of a queue — and compares every queue with a slice-per-VOQ reference
// after every step: the head, the full walk both ways, the tail, the
// length, the head-age record as headRow refreshes it, and the active-VOQ
// bit. Refill/drain cycles afterwards must recycle arena rows, never grow
// past the high-water mark.
func TestVOQListModel(t *testing.T) {
	const outs = 4
	rt, err := New(emptySource{}, Config{
		Switch: switchnet.NewSwitch(1, outs, 3),
		Policy: &RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	type entry struct {
		id int32
		hd voqHead
	}
	model := make([][]entry, outs)
	seq, live, peak := int64(0), 0, 0
	admit := func(rel int) {
		out, dem := rng.Intn(outs), 1+rng.Intn(3)
		rt.admitFlow(&switchnet.Flow{In: 0, Out: out, Demand: dem, Release: rel}, seq)
		model[out] = append(model[out], entry{id: rt.tail, hd: voqHead{rel: int64(rel), dem: int32(dem)}})
		seq++
		live++
		peak = max(peak, live)
	}
	// depart removes the k-th flow of VOQ out: 0 is the head, the last
	// index the tail, anything between a mid-queue unlink.
	depart := func(out, k int) {
		q := model[out]
		rt.depart(q[k].id)
		model[out] = append(q[:k], q[k+1:]...)
		live--
	}
	check := func(step int) {
		t.Helper()
		for out, q := range model {
			vi := out
			var fwd, back []int32
			for id := rt.vqs[vi].head; id != noID; id = rt.ar.rec[id].vnext {
				if fwd = append(fwd, id); len(fwd) > len(q) {
					break
				}
			}
			for id := rt.vqs[vi].tail; id != noID; id = rt.ar.rec[id].vprev {
				if back = append(back, id); len(back) > len(q) {
					break
				}
			}
			if len(fwd) != len(q) || len(back) != len(q) {
				t.Fatalf("step %d VOQ %d: walks of %d forward and %d back; the model holds %d",
					step, out, len(fwd), len(back), len(q))
			}
			for k, e := range q {
				if fwd[k] != e.id || back[len(q)-1-k] != e.id {
					t.Fatalf("step %d VOQ %d position %d: forward %d, back %d; want id %d", step, out, k, fwd[k], back[len(q)-1-k], e.id)
				}
			}
			active := rt.actBits[out>>6]&(1<<uint(out&63)) != 0
			if active != (len(q) > 0) {
				t.Fatalf("step %d VOQ %d: active bit %v with %d queued", step, out, active, len(q))
			}
			if len(q) == 0 {
				if rt.vqs[vi].head != noID || rt.vqs[vi].tail != noID {
					t.Fatalf("step %d VOQ %d: empty queue has head %d, tail %d", step, out, rt.vqs[vi].head, rt.vqs[vi].tail)
				}
				continue
			}
			if rt.vqs[vi].tail != q[len(q)-1].id {
				t.Fatalf("step %d VOQ %d: tail %d, want %d", step, out, rt.vqs[vi].tail, q[len(q)-1].id)
			}
			if hd := rt.view.headRow(0)[out]; hd != q[0].hd {
				t.Fatalf("step %d VOQ %d: head-age record %+v, want %+v", step, out, hd, q[0].hd)
			}
		}
	}
	// nonEmpty picks a random queued VOQ; there must be one.
	nonEmpty := func() int {
		for {
			if out := rng.Intn(outs); len(model[out]) > 0 {
				return out
			}
		}
	}
	for step := 0; step < 4000; step++ {
		if live == 0 || (live < 48 && rng.Intn(2) == 0) {
			admit(step / 8)
		} else {
			out := nonEmpty()
			n := len(model[out])
			switch rng.Intn(3) {
			case 0:
				depart(out, 0)
			case 1:
				depart(out, n-1)
			default:
				depart(out, rng.Intn(n))
			}
		}
		check(step)
	}
	for live > 0 {
		depart(nonEmpty(), 0)
	}
	check(-1)

	hw := len(rt.ar.rec)
	for cycle := 0; cycle < 8; cycle++ {
		for live < peak {
			admit(4000 + cycle)
		}
		for live > 0 {
			out := nonEmpty()
			depart(out, rng.Intn(len(model[out])))
		}
		check(-2 - cycle)
		if len(rt.ar.rec) > hw {
			t.Fatalf("cycle %d: arena grew from %d to %d rows", cycle, hw, len(rt.ar.rec))
		}
	}
}

// TestPendingCountFollowsStore pins the pending count to the store it
// counts: admitFlow raises it and depart lowers it, so after every
// hand-run admission, departure and expiry walk, and after every step of
// drains at K in {1, 2} under each admission mode, the count equals the
// flows queued at the inputs and the length of the admission-order list,
// and the snapshot's counters balance to it.
func TestPendingCountFollowsStore(t *testing.T) {
	check := func(t *testing.T, rt *Runtime, at string) {
		t.Helper()
		queued, listed := 0, 0
		for _, n := range rt.queueIn {
			queued += n
		}
		for id := rt.head; id != noID; id = rt.ar.rec[id].next {
			listed++
		}
		if rt.count != queued || rt.count != listed {
			t.Fatalf("%s: count %d, %d queued at the inputs, %d on the admission list", at, rt.count, queued, listed)
		}
	}
	t.Run("hand", func(t *testing.T) {
		rt, err := New(emptySource{}, Config{
			Switch: switchnet.UnitSwitch(4),
			Policy: &RoundRobin{},
			Admit:  AdmitDeadline, Deadline: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range 12 {
			rt.admitFlow(&switchnet.Flow{In: i % 4, Out: i * 3 % 4, Demand: 1, Release: i / 4}, int64(i))
			check(t, rt, fmt.Sprintf("admitFlow %d", i))
		}
		rt.depart(rt.head)
		check(t, rt, "depart head")
		rt.depart(rt.tail)
		check(t, rt, "depart tail")
		// Round 2 expires what was released at 0: three flows are left.
		rt.round = 2
		if n := rt.expire(); n != 3 || rt.mExpired.Load() != 3 {
			t.Fatalf("expire took %d flows and counted %d, want 3", n, rt.mExpired.Load())
		}
		check(t, rt, "expire")
	})
	for _, K := range []int{1, 2} {
		for _, admit := range []AdmitMode{AdmitLossless, AdmitDrop, AdmitDeadline} {
			t.Run(fmt.Sprintf("K%d/%s", K, admit), func(t *testing.T) {
				cfg := Config{
					Switch:     switchnet.UnitSwitch(8),
					Policy:     ByName("OldestFirst"),
					Shards:     K,
					MaxPending: 64,
					Admit:      admit,
				}
				if admit == AdmitDeadline {
					cfg.Deadline = 5
				}
				// Twelve flows a round on eight unit ports: the backlog
				// grows until admission or expiry holds it.
				rt, err := New(&sliceSource{flows: genFlows(8, 40, 12)}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(t, rt, "New")
				for done := false; !done; {
					if done, err = rt.step(); err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("round %d", rt.round)
					check(t, rt, at)
					if s := rt.Snapshot(); s.Pending != rt.count {
						t.Fatalf("%s: snapshot pending %d, count %d", at, s.Pending, rt.count)
					}
				}
				s := rt.Snapshot()
				if s.Completed == 0 || (admit == AdmitDrop) != (s.Dropped > 0) || (admit == AdmitDeadline) != (s.Expired > 0) {
					t.Fatalf("drain exercised nothing: %+v", s)
				}
			})
		}
	}
}
