package stream

import (
	"fmt"
	"math"
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
	t, rt, sc := p.t, v.rt, v.k
	*p.picks++
	if p.steal {
		for in := range rt.sw.NumIn() {
			if in%rt.nshards == sc {
				continue
			}
			for out := range rt.sw.NumOut() {
				if id := v.VOQHead(in, out); id != NoID {
					if v.Take(id) {
						t.Errorf("shard %d took flow %d at input %d, another shard's", sc, id, in)
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
		if rt.ar.rec[id].inPort()%rt.nshards == sc {
			want = append(want, ID(id))
		}
	}
	k := 0
	lastSeq := int64(-1)
	v.Each(func(id ID, seq int64, f switchnet.Flow) bool {
		if k >= len(want) || id != want[k] || seq <= lastSeq || f.In%rt.nshards != sc {
			t.Fatalf("round %d shard %d: Each yielded id %d (seq %d, input %d) at position %d; want ids %v",
				rt.round, sc, id, seq, f.In, k, want)
		}
		k++
		lastSeq = seq
		return true
	})
	held := 0
	for in := sc; in < rt.sw.NumIn(); in += rt.nshards {
		held += rt.queueIn[in]
	}
	if k != len(want) || k != held {
		t.Fatalf("round %d shard %d: Each yielded %d flows, the shard holds %d (%d queued at its inputs)", rt.round, sc, k, len(want), held)
	}

	// QueueIn is the depth at the shard's own inputs and 0 at the others';
	// ActiveInput names only the shard's inputs.
	for in := range rt.sw.NumIn() {
		got := v.QueueIn(in)
		if in%rt.nshards == sc {
			if got != rt.queueIn[in] {
				t.Fatalf("round %d shard %d: QueueIn(%d) = %d, want %d", rt.round, sc, in, got, rt.queueIn[in])
			}
			continue
		}
		if got != 0 {
			t.Fatalf("round %d shard %d: QueueIn(%d) = %d at another shard's input", rt.round, sc, in, got)
		}
		if rt.queueIn[in] > 0 {
			*p.foreign++
		}
	}
	for a := range v.NumActiveInputs() {
		if in := v.ActiveInput(a); in%rt.nshards != sc {
			t.Fatalf("round %d shard %d: ActiveInput(%d) = %d, another shard's input", rt.round, sc, a, in)
		}
	}
	p.inner.Pick(v)
}

// TestShardScopedViewContract holds a K = 2 runtime to the View contract
// its policies rely on. From a shard's View, Each walks only that shard's
// flows in admission order, QueueIn reads 0 at the other shard's inputs,
// and ActiveInput never names one of them (OldestFirst's and
// WeightedISLIP's input loops depend on it), whatever the shard's turn. IDs are
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

// turnProbe wraps one shard's instance of a native policy and checks the
// turn-taking protocol on entry to every Pick, before handing the pick
// on. The shards of one runtime share a turnLog.
type turnProbe struct {
	t     *testing.T
	inner Policy
	log   *turnLog
}

// turnLog is what the probes of one runtime have seen: the round, oldest
// pending release and index of the last shard to pick, the round each
// shard last picked in, and counts that show the checks were not vacuous.
type turnLog struct {
	round, idx int
	rel        int64
	last       []int
	// picks counts probed picks; reordered those that came after a
	// higher-indexed shard's in the same round; contested those that
	// found output capacity already taken this round.
	picks, reordered, contested int
}

func (p *turnProbe) Name() string { return p.inner.Name() }

func (p *turnProbe) NewShard() Policy {
	return &turnProbe{t: p.t, inner: p.inner.(Shardable).NewShard(), log: p.log}
}

func (p *turnProbe) Reset(sw switchnet.Switch) {
	if r, ok := p.inner.(Resetter); ok {
		r.Reset(sw)
	}
}

func (p *turnProbe) Pick(v *View) {
	t, rt, sc, lg := p.t, v.rt, v.k, p.log
	if lg.last[sc] == rt.round {
		t.Fatalf("round %d: shard %d picked a second time", rt.round, sc)
	}
	lg.last[sc] = rt.round

	// The shard's key is the release of its first flow on the admission
	// list; within a round the keys must rise, ties by index.
	rel := int64(math.MaxInt64)
	for id := rt.head; id != noID; id = rt.ar.rec[id].next {
		if rt.ar.rec[id].inPort()%rt.nshards == sc {
			rel = rt.ar.rec[id].rel
			break
		}
	}
	if lg.round == rt.round {
		if rel < lg.rel || (rel == lg.rel && sc < lg.idx) {
			t.Fatalf("round %d: shard %d (oldest release %d) picked after shard %d (oldest release %d)",
				rt.round, sc, rel, lg.idx, lg.rel)
		}
		if sc < lg.idx {
			lg.reordered++
		}
	}
	lg.round, lg.rel, lg.idx = rt.round, rel, sc

	// Every output offers its capacity minus what the shards before this
	// one took at it this round.
	used := make([]int, rt.sw.NumOut())
	for _, id := range rt.takes {
		used[rt.ar.rec[id].outPort()] += int(rt.ar.rec[id].dem)
	}
	contested := false
	for j, u := range used {
		if got, want := v.OutputFree(j), rt.sw.OutCaps[j]-u; got != want {
			t.Fatalf("round %d shard %d: OutputFree(%d) = %d on entry, want capacity %d minus %d taken = %d",
				rt.round, sc, j, got, rt.sw.OutCaps[j], u, want)
		}
		contested = contested || u > 0
	}
	if contested {
		lg.contested++
	}
	lg.picks++
	p.inner.Pick(v)
}

// TestShardsPickInTurn holds every native policy at K in {2, 3, 4} to the
// turn-taking protocol: in every round each shard picks at most once, the
// shards pick in (oldest pending release, index) order, and each finds
// every output's capacity less exactly what the shards before it took
// there this round. Deadline admission keeps heads changing by expiry as
// well as by departure.
func TestShardsPickInTurn(t *testing.T) {
	const ports = 7
	for _, name := range Names() {
		for _, K := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/K%d", name, K), func(t *testing.T) {
				lg := &turnLog{round: -1, last: make([]int, K)}
				for i := range lg.last {
					lg.last[i] = -1
				}
				rt, err := New(&churnSource{ports: ports, rounds: 160, maxDem: 2}, Config{
					Switch: switchnet.NewSwitch(ports, ports, 2),
					Policy: &turnProbe{t: t, inner: ByName(name), log: lg},
					Shards: K, MaxPending: 48, Admit: AdmitDeadline, Deadline: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				sum, err := rt.Run()
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d picks, %d after a higher index, %d contested", lg.picks, lg.reordered, lg.contested)
				if sum.Completed == 0 || sum.Expired == 0 || lg.reordered == 0 || lg.contested == 0 {
					t.Fatalf("vacuous run: %d completed, %d expired, %d probed picks, %d after a higher index, %d contested",
						sum.Completed, sum.Expired, lg.picks, lg.reordered, lg.contested)
				}
			})
		}
	}
}
