package stream

import (
	"strings"
	"testing"
	"unsafe"

	"flowsched/internal/switchnet"
)

// TestArenaRecordLayout pins the arena's cache-budget claims: the hot
// record — now carrying the release round for the age-aware policies —
// must stay exactly 32 bytes (two flows per cache line), and the cold
// column is a bare sequence number.
func TestArenaRecordLayout(t *testing.T) {
	if s := unsafe.Sizeof(flowRec{}); s != 32 {
		t.Fatalf("flowRec is %d bytes, want exactly 32", s)
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

// TestFlushWindowLabelsTrueRounds pins the verification-failure label to
// the true min/max buffered rounds. The old label was [vstart, vstart+w)
// with a vstart that went stale when an idle jump crossed several window
// boundaries before the flush; deriving it from the buffered rounds cannot
// drift. An infeasible buffer can only be injected white-box — View.Take
// never produces one — so this test writes the runtime's one verification
// buffer directly.
func TestFlushWindowLabelsTrueRounds(t *testing.T) {
	rt, err := New(emptySource{}, Config{
		Switch:      switchnet.UnitSwitch(2),
		Policy:      FIFO{},
		VerifyEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.startVerifier()
	defer rt.stopVerifier()
	// A feasible flow at round 5, then two unit flows on the same port
	// pair in round 9: load 2 on a unit-capacity port, infeasible.
	rt.bufFlows = append(rt.bufFlows,
		switchnet.Flow{In: 1, Out: 1, Demand: 1},
		switchnet.Flow{In: 0, Out: 0, Demand: 1},
		switchnet.Flow{In: 0, Out: 0, Demand: 1},
	)
	rt.bufRounds = append(rt.bufRounds, 5, 9, 9)

	// flushWindow hands the window to the verifier goroutine; the verdict
	// surfaces at the join.
	err = rt.flushWindow()
	if err == nil {
		err = rt.joinVerify()
	}
	if err == nil {
		t.Fatal("infeasible window passed verification")
	}
	if !strings.Contains(err.Error(), "[5, 9]") {
		t.Fatalf("window label does not cover the true buffered rounds [5, 9]: %v", err)
	}
}

// TestNextActiveVOQWordBoundaries probes the active-VOQ bitmap across
// 64-bit word edges: with NumOut > 64 the per-input bitmap spans several
// words, and the ports 63/64 and 127/128 sit on opposite sides of word
// boundaries. Activation, circular probing (including wrap-around through
// a zero upper word), and drain-time bit clearing exactly at a word edge
// must all agree with the active lists.
func TestNextActiveVOQWordBoundaries(t *testing.T) {
	rt, err := New(emptySource{}, Config{
		Switch: switchnet.NewSwitch(1, 130, 1),
		Policy: &RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := rt.shards[0]
	seq := int64(0)
	add := func(out int) {
		sh.admit(arrival{flow: switchnet.Flow{In: 0, Out: out, Demand: 1}, seq: seq})
		seq++
	}
	drain := func(out int) {
		id := sh.voqFirst(sh.voq(0, out))
		if id == noID {
			t.Fatalf("VOQ (0, %d) empty before drain", out)
		}
		sh.depart(id)
	}
	probe := func(from, want int) {
		t.Helper()
		if got := sh.nextActive(0, from); got != want {
			t.Fatalf("nextActive(0, %d) = %d, want %d", from, got, want)
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
	for i, w := range sh.actBits {
		if w != 0 {
			t.Fatalf("bitmap word %d left set after full drain: %x", i, w)
		}
	}

	// NumOut == 64: the single-word edge case, wrap from bit 63 to bit 0.
	rt64, err := New(emptySource{}, Config{
		Switch: switchnet.NewSwitch(1, 64, 1),
		Policy: &RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	sh = rt64.shards[0]
	add(0)
	add(63)
	probe(1, 63)
	probe(63, 63)
	drain(63)
	probe(63, 0) // bit 63 cleared at the word edge; wrap finds bit 0
	probe(0, 0)
}

// TestVOQTombstonesAndCompaction drives the pooled ring-buffer VOQ storage
// through its out-of-FIFO-order removal path directly: tombstoned
// mid-queue entries must stay invisible to head/next iteration, compaction
// must trigger once tombstones outnumber live entries by more than a
// block, and a drained VOQ must return its whole chain to the pool for
// reuse (no unbounded block growth across refill cycles).
func TestVOQTombstonesAndCompaction(t *testing.T) {
	rt, err := New(emptySource{}, Config{
		Switch: switchnet.NewSwitch(1, 2, 1),
		Policy: &RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := rt.shards[0]
	vi := sh.voq(0, 0)

	const n = 4 * blockLen
	ids := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		sh.admit(arrival{flow: switchnet.Flow{In: 0, Out: 0, Demand: 1, Release: i}, seq: int64(i)})
		ids = append(ids, sh.tail)
	}
	// Remove every younger flow (tail side), oldest-first survivor: each is
	// a mid-queue removal, so tombstones accumulate until compaction.
	for i := n - 1; i >= 1; i-- {
		sh.depart(ids[i])
		if head := sh.voqFirst(vi); head != ids[0] {
			t.Fatalf("after %d removals, VOQ head = %d, want oldest %d", n-i, head, ids[0])
		}
		if nxt := sh.voqNext(vi, ids[0]); i > 1 {
			if nxt != ids[1] {
				t.Fatalf("voqNext skipped to %d, want next-oldest %d", nxt, ids[1])
			}
		} else if nxt != noID {
			t.Fatalf("voqNext past the only live entry = %d, want noID", nxt)
		}
		if sh.vqs[vi].dead > sh.vqs[vi].live+blockLen {
			t.Fatalf("tombstones escaped the compaction bound: %d dead, %d live", sh.vqs[vi].dead, sh.vqs[vi].live)
		}
	}
	sh.depart(ids[0])
	if sh.vqs[vi].live != 0 || sh.vqs[vi].head != noID {
		t.Fatal("drained VOQ did not release its chain")
	}

	// Refill/drain cycles must recycle pooled blocks, not grow the pool.
	grown := len(sh.pool.blocks)
	for cycle := 0; cycle < 8; cycle++ {
		var cids []int32
		for i := 0; i < n; i++ {
			sh.admit(arrival{flow: switchnet.Flow{In: 0, Out: 0, Demand: 1, Release: n + cycle}, seq: int64(n*cycle + i)})
			cids = append(cids, sh.tail)
		}
		for _, id := range cids {
			sh.depart(id)
		}
	}
	if len(sh.pool.blocks) > grown {
		t.Fatalf("block pool grew from %d to %d across refill cycles", grown, len(sh.pool.blocks))
	}
}

// TestShardBudgetsPartitionCapacity: for every round offset the per-shard
// carves of an output's capacity must sum to exactly the capacity, so
// propose-phase picks can never overload a port and reconcile redistributes
// precisely what was left.
func TestShardBudgetsPartitionCapacity(t *testing.T) {
	for _, caps := range []int{1, 2, 3, 5, 8} {
		for _, k := range []int{1, 2, 3, 4} {
			rt, err := New(emptySource{}, Config{
				Switch: switchnet.NewSwitch(4, 4, caps),
				Policy: &RoundRobin{},
				Shards: k,
			})
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 6; round++ {
				rt.round = round
				for j := 0; j < 4; j++ {
					sum := 0
					for _, sh := range rt.shards {
						b := sh.budget(j)
						if b < 0 {
							t.Fatalf("caps=%d k=%d round=%d out=%d shard=%d: negative budget %d", caps, k, round, j, sh.idx, b)
						}
						sum += b
					}
					if sum != caps {
						t.Fatalf("caps=%d k=%d round=%d out=%d: budgets sum to %d", caps, k, round, j, sum)
					}
				}
			}
		}
	}
}
