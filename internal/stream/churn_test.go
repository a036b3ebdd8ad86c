package stream

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"flowsched/internal/switchnet"
)

// churnSource feeds a deterministic high-churn arrival pattern: bursty
// per-round batches over cycling port pairs with demands mixed over
// 1..maxDem, so VOQs activate, drain, and re-activate constantly and the
// shards' oldest pending release moves every round.
type churnSource struct {
	ports, rounds, maxDem int
	r, i                  int
}

func (s *churnSource) Next() (switchnet.Flow, bool) {
	for s.r < s.rounds {
		per := 3 + (s.r*7)%9 // burst size varies 3..11 per round
		if s.i >= per {
			s.r++
			s.i = 0
			continue
		}
		k := s.r*31 + s.i*13
		f := switchnet.Flow{
			In:      k % s.ports,
			Out:     (k*5 + s.i) % s.ports,
			Demand:  1 + k%s.maxDem,
			Release: s.r,
		}
		s.i++
		return f, true
	}
	return switchnet.Flow{}, false
}

// PullBatch reads through Next and rewinds the generator over the first
// flow released after round.
func (s *churnSource) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	for n := 0; n < max; n++ {
		at := *s
		f, ok := s.Next()
		if !ok {
			break
		}
		if f.Release > round {
			*s = at
			break
		}
		dst = append(dst, f)
	}
	return dst
}

func (s *churnSource) Err() error { return nil }

// churnGolden pins the sharded age policies' schedules on the churn
// source, under the shards' turns: FNV-1a over the OnSchedule (seq,
// round) stream, with a deadline of 4 rounds, short enough that expiry
// binds at every K. A hash that moves means sharded OldestFirst or
// WeightedISLIP schedules differently.
var churnGolden = map[string]uint64{
	"OldestFirst/K2/cap3":   0xbf55f7ba3443e5b9,
	"OldestFirst/K2/cap2":   0x2799dfa9f4e37a2e,
	"OldestFirst/K3/cap3":   0xb310646498545ab3,
	"OldestFirst/K3/cap2":   0xbbe1179a92108e56,
	"OldestFirst/K4/cap3":   0x0d854b10f775dfde,
	"OldestFirst/K4/cap2":   0x30be50bf05a29545,
	"WeightedISLIP/K2/cap3": 0xdb01c9f50bfc083b,
	"WeightedISLIP/K2/cap2": 0x28e04d1c3cc4925f,
	"WeightedISLIP/K3/cap3": 0x3bc6546a07eebd2a,
	"WeightedISLIP/K3/cap2": 0xdd40a49ba565fce4,
	"WeightedISLIP/K4/cap3": 0xf6989c71bd130b7a,
	"WeightedISLIP/K4/cap2": 0x6ac63e67ffe5dcf2,
}

// TestShardedAgeOrderUnderChurn drives both age-aware policies at
// several shard counts through the churn source with deadline expiry on
// (so heads change by activation, departure, and expiry) and checks,
// after every round, that shard.oldestRel — the release of the shard's
// first flow on the runtime's admission list — is the release of the
// oldest head among the non-empty VOQs at the shard's inputs, the key
// the shards take turns by. The whole run's schedule must also hash to
// its golden value. OldestFirst runs a second time under listProbe,
// whose every pick holds the synced lists to a from-scratch build, on
// the same golden row.
func TestShardedAgeOrderUnderChurn(t *testing.T) {
	for _, pol := range []string{"OldestFirst", "WeightedISLIP"} {
		for _, shards := range []int{2, 3, 4} {
			for _, portCap := range []int{3, 2} {
				name := fmt.Sprintf("%s/K%d/cap%d", pol, shards, portCap)
				t.Run(name, func(t *testing.T) {
					testAgeOrderUnderChurn(t, ByName(pol), shards, portCap, churnGolden[name])
				})
				if pol != "OldestFirst" {
					continue
				}
				t.Run(name+"/lists", func(t *testing.T) {
					testAgeOrderUnderChurn(t, &listProbe{t: t, p: &OldestFirst{}}, shards, portCap, churnGolden[name])
				})
			}
		}
	}
}

// testAgeOrderUnderChurn is one row of TestShardedAgeOrderUnderChurn. It
// reads the VOQ heads from the arena, not through headRow, whose calls
// would clear the stale bits OldestFirst's lists sync from.
func testAgeOrderUnderChurn(t *testing.T, pol Policy, shards, portCap int, golden uint64) {
	const ports, rounds = 7, 160
	h := fnv.New64a()
	var buf [16]byte
	rt, err := New(&churnSource{ports: ports, rounds: rounds, maxDem: portCap}, Config{
		Switch: switchnet.NewSwitch(ports, ports, portCap),
		Policy: pol, Shards: shards,
		MaxPending: 48, Admit: AdmitDeadline, Deadline: 4,
		OnSchedule: func(seq int64, _ switchnet.Flow, round int) {
			binary.LittleEndian.PutUint64(buf[:8], uint64(seq))
			binary.LittleEndian.PutUint64(buf[8:], uint64(round))
			h.Write(buf[:])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		done, err := rt.step()
		if err != nil {
			t.Fatal(err)
		}
		for k := range rt.nshards {
			v := View{rt: rt, k: k}
			want := int64(math.MaxInt64)
			for in := k; in < ports; in += shards {
				for out := range ports {
					if id := rt.vqs[in*ports+out].head; id != noID {
						want = min(want, rt.ar.rec[id].rel)
					}
				}
			}
			if got := v.oldestRel(); got != want {
				t.Fatalf("round %d scope %d: oldestRel %d, oldest VOQ head %d", rt.round, k, got, want)
			}
		}
		if done {
			break
		}
		if steps++; steps > 1<<20 {
			t.Fatal("runaway stream")
		}
	}
	if sum := rt.Snapshot(); sum.Completed == 0 || sum.Expired == 0 {
		t.Fatalf("churn run should both complete and expire flows: %+v", sum)
	}
	if got := h.Sum64(); got != golden {
		t.Fatalf("schedule hash %#x, golden %#x", got, golden)
	}
}
