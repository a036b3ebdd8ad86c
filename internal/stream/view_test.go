package stream

import (
	"strings"
	"testing"

	"flowsched/internal/switchnet"
)

// viewProbe checks the shard-scoped View contract from inside Pick, then
// hands the pick to a RoundRobin instance so the run makes progress. With
// steal set, a shard instead takes the head of another shard's VOQ.
type viewProbe struct {
	t     *testing.T
	steal bool
	inner Policy
	// picks counts probed Picks; foreign counts the foreign inputs seen
	// with pending flows (so the QueueIn check was not vacuous).
	picks, foreign *int
}

func (p *viewProbe) Name() string { return "viewProbe" }

func (p *viewProbe) NewShard() Policy {
	return &viewProbe{t: p.t, steal: p.steal, inner: &RoundRobin{}, picks: p.picks, foreign: p.foreign}
}

func (p *viewProbe) Reset(sw switchnet.Switch) { p.inner.(Resetter).Reset(sw) }

func (p *viewProbe) Pick(v *View) {
	t, rt, sh := p.t, v.rt, v.sh
	*p.picks++
	if p.steal {
		for in := range rt.sw.NumIn() {
			if in%rt.nshards == sh.idx {
				continue
			}
			for out := range rt.sw.NumOut() {
				if id := v.VOQHead(in, out); id != NoID {
					if v.Take(id) {
						t.Errorf("shard %d took flow %d at input %d, another shard's", sh.idx, id, in)
					}
					return
				}
			}
		}
		return
	}

	// Each yields exactly the shard's flows, in admission order.
	var want []ID
	for id := rt.head; id != noID; id = rt.ar.rec[id].next {
		if int(rt.ar.rec[id].in)%rt.nshards == sh.idx {
			want = append(want, ID(id))
		}
	}
	k := 0
	lastSeq := int64(-1)
	v.Each(func(id ID, seq int64, f switchnet.Flow) bool {
		if k >= len(want) || id != want[k] || seq <= lastSeq || f.In%rt.nshards != sh.idx {
			t.Fatalf("round %d shard %d: Each yielded id %d (seq %d, input %d) at position %d; want ids %v",
				rt.round, sh.idx, id, seq, f.In, k, want)
		}
		k++
		lastSeq = seq
		return true
	})
	if k != len(want) || k != sh.count {
		t.Fatalf("round %d shard %d: Each yielded %d flows, the shard holds %d (count %d)", rt.round, sh.idx, k, len(want), sh.count)
	}

	// QueueIn is the depth at the shard's own inputs and 0 at the others';
	// ActiveInput names only the shard's inputs.
	for in := range rt.sw.NumIn() {
		got := v.QueueIn(in)
		if in%rt.nshards == sh.idx {
			if got != rt.queueIn[in] {
				t.Fatalf("round %d shard %d: QueueIn(%d) = %d, want %d", rt.round, sh.idx, in, got, rt.queueIn[in])
			}
			continue
		}
		if got != 0 {
			t.Fatalf("round %d shard %d: QueueIn(%d) = %d at another shard's input", rt.round, sh.idx, in, got)
		}
		if rt.queueIn[in] > 0 {
			*p.foreign++
		}
	}
	for a := range v.NumActiveInputs() {
		if in := v.ActiveInput(a); in%rt.nshards != sh.idx {
			t.Fatalf("round %d shard %d: ActiveInput(%d) = %d, another shard's input", rt.round, sh.idx, a, in)
		}
	}
	p.inner.Pick(v)
}

// TestShardScopedViewContract holds a K = 2 runtime to the View contract
// its policies rely on. From a shard's View, Each walks only that shard's
// flows in admission order, QueueIn reads 0 at the other shard's inputs
// (OldestFirst's input loop depends on it), and ActiveInput never names
// one of them — on both the propose and the reconcile pass. IDs are
// runtime-wide, so another shard's flow is readable through VOQHead; a
// Take of it fails the run with the policy-contract error.
func TestShardScopedViewContract(t *testing.T) {
	const ports = 7
	var picks, foreign int
	rt, err := New(&churnSource{ports: ports, rounds: 80, maxDem: 2}, Config{
		Switch: switchnet.NewSwitch(ports, ports, 2),
		Policy: &viewProbe{t: t, picks: &picks, foreign: &foreign},
		Shards: 2, MaxPending: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed == 0 || picks == 0 || foreign == 0 {
		t.Fatalf("vacuous run: %d completed, %d probed picks, %d foreign pending inputs seen", sum.Completed, picks, foreign)
	}

	picks = 0
	rt, err = New(&churnSource{ports: ports, rounds: 80, maxDem: 2}, Config{
		Switch: switchnet.NewSwitch(ports, ports, 2),
		Policy: &viewProbe{t: t, steal: true, picks: &picks, foreign: &foreign},
		Shards: 2, MaxPending: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run()
	if err == nil || !strings.Contains(err.Error(), "not a pending flow at its shard's inputs") {
		t.Fatalf("taking another shard's flow: run returned %v, want the policy-contract error", err)
	}
}
