package stream

import (
	"fmt"
	"math/bits"
	"runtime"
	"testing"
	"unsafe"

	"flowsched/internal/switchnet"
)

// headProbe wraps a policy and, after each of its picks, holds every
// active VOQ's head-age record at the scope's active inputs, as headRow
// hands it out, to the queue's actual head: its release and demand read
// from the arena. The inner policy's own headRow calls run first, so the
// rows it read were refreshed by the lazy path itself. The probe reads
// no other input's row: its headRow calls would clear stale bits that
// OldestFirst's lists have not synced from yet.
type headProbe struct {
	t      *testing.T
	inner  Policy
	checks int
}

func (p *headProbe) Name() string { return p.inner.Name() }

func (p *headProbe) NewShard(k int) Policy {
	return &headProbe{t: p.t, inner: p.inner.(Shardable).NewShard(k)}
}

func (p *headProbe) Reset(sw switchnet.Switch) {
	if r, ok := p.inner.(Resetter); ok {
		r.Reset(sw)
	}
}

func (p *headProbe) Pick(v *View) {
	p.inner.Pick(v)
	rt := v.rt
	for a := range v.NumActiveInputs() {
		in := v.ActiveInput(a)
		row := v.headRow(in)
		for out := range rt.sw.NumOut() {
			h := rt.vqs[in*rt.mOut+out].head
			if h == noID {
				continue
			}
			r := &rt.ar.rec[h]
			if want := (voqHead{rel: r.rel, dem: r.dem}); row[out] != want {
				p.t.Fatalf("round %d VOQ (%d, %d): head-age record %+v, head flow %d has %+v", rt.round, in, out, row[out], h, want)
			}
			p.checks++
		}
	}
}

// TestHeadRowMatchesQueueHeads is the differential check on the lazy
// head-age records: on every round of a churned drain — bursty arrivals,
// multi-unit demands, deadline admission expiring the flows a policy lets
// age — and under each policy that reads
// them (OldestFirst, WeightedISLIP) or never does (RoundRobin), headRow
// must return the release and demand of the head of each non-empty VOQ.
func TestHeadRowMatchesQueueHeads(t *testing.T) {
	const ports = 7
	for _, name := range []string{"OldestFirst", "WeightedISLIP", "RoundRobin"} {
		for _, K := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/K%d", name, K), func(t *testing.T) {
				probe := &headProbe{t: t, inner: ByName(name)}
				rt, err := New(&churnSource{ports: ports, rounds: 160, maxDem: 2}, Config{
					Switch: switchnet.NewSwitch(ports, ports, 2),
					Policy: probe, Shards: K,
					MaxPending: 48, Admit: AdmitDeadline, Deadline: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				sum, err := rt.Run()
				if err != nil {
					t.Fatal(err)
				}
				checks := 0
				for _, p := range rt.instances() {
					checks += p.(*headProbe).checks
				}
				if sum.Completed == 0 || checks == 0 {
					t.Fatalf("vacuous run: %d completed, %d head records checked", sum.Completed, checks)
				}
			})
		}
	}
}

// TestRoundRobinRefreshesNoHeadRecord: RoundRobin never reads a head-age
// record, so a whole drain under it must write none — every head change
// only marks its VOQ stale.
func TestRoundRobinRefreshesNoHeadRecord(t *testing.T) {
	const ports = 7
	rt, err := New(&churnSource{ports: ports, rounds: 160, maxDem: 2}, Config{
		Switch: switchnet.NewSwitch(ports, ports, 2),
		Policy: ByName("RoundRobin"), MaxPending: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	poison := voqHead{rel: -1, dem: -1}
	for i := range rt.heads {
		rt.heads[i] = poison
	}
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, w := range rt.stale {
		stale += bits.OnesCount64(w)
	}
	if sum.Completed == 0 || stale == 0 {
		t.Fatalf("vacuous run: %d completed, %d VOQs marked stale", sum.Completed, stale)
	}
	for vi, h := range rt.heads {
		if h != poison {
			t.Fatalf("VOQ %d: head-age record written (%+v) under RoundRobin", vi, h)
		}
	}
}

// TestArenaWidePorts drains a 1<<15 x 2 and a 2 x 1<<15 switch with flows
// routed to the wide side's top port, 32767, so the live and taken bits
// sit directly above a port number with every bit set. Every flow must
// be scheduled once, verified feasible, and reported on its own ports.
// (A square 1<<15 switch would need a billion VOQs.)
func TestArenaWidePorts(t *testing.T) {
	const wide, top = 1 << 15, 1<<15 - 1
	for _, tc := range []struct {
		name     string
		sw       switchnet.Switch
		wideSide switchnet.Side
	}{
		{"wideIn", switchnet.NewSwitch(wide, 2, 2), switchnet.In},
		{"wideOut", switchnet.NewSwitch(2, wide, 2), switchnet.Out},
	} {
		var flows []switchnet.Flow
		for r := range 24 {
			for k := range 4 {
				w := []int{top, top - 1, 0, top}[k]
				n := (r + k) % 2
				f := switchnet.Flow{In: w, Out: n, Demand: 1 + (r+k)%2, Release: r}
				if tc.wideSide == switchnet.Out {
					f.In, f.Out = n, w
				}
				flows = append(flows, f)
			}
		}
		for _, name := range Names() {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				got := make([]switchnet.Flow, 0, len(flows))
				rt, err := New(&sliceSource{flows: flows}, Config{
					Switch: tc.sw, Policy: ByName(name), VerifyEvery: 8,
					OnSchedule: func(seq int64, f switchnet.Flow, _ int) {
						if f != flows[seq] {
							t.Errorf("flow %d scheduled as %+v, admitted as %+v", seq, f, flows[seq])
						}
						got = append(got, f)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				sum, err := rt.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(flows) || sum.Completed != int64(len(flows)) || sum.WindowsVerified == 0 {
					t.Fatalf("%d of %d flows scheduled, %d completed, %d windows verified", len(got), len(flows), sum.Completed, sum.WindowsVerified)
				}
			})
		}
	}
}

// TestArenaGrowthDoubles pins the arena's growth rule: a fresh RoundRobin
// runtime ramped to 64k resident flows allocates, all told, at most 2.2x
// the arena it ends with. Doubling columns copy each row about once on
// the way up (a geometric series summing to twice the final size);
// append's 1.25x rule for large slices allocated about five times it.
// The record column it ends with starts on a cache-line boundary, so
// none of its 32-byte records straddles two lines.
func TestArenaGrowthDoubles(t *testing.T) {
	const ports, backlog = 64, 1 << 16
	rt, err := New(&patternSource{ports: ports, per: ports * 3}, Config{
		Switch: switchnet.UnitSwitch(ports), Policy: ByName("RoundRobin"), MaxPending: backlog,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for rt.peak < backlog {
		if _, err := rt.step(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	a := &rt.ar
	final := uint64(cap(a.rec))*uint64(unsafe.Sizeof(flowRec{})) + uint64(cap(a.seq))*8 + uint64(cap(a.freed))*4
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("ramp to %d resident in %d rounds: allocated %d bytes, final arena %d bytes (%.2fx)",
		backlog, rt.round, got, final, float64(got)/float64(final))
	if float64(got) > 2.2*float64(final) {
		t.Fatalf("ramp allocated %d bytes, %.2fx the final %d-byte arena; want <= 2.2x", got, float64(got)/float64(final), final)
	}
	if at := uintptr(unsafe.Pointer(&a.rec[0])); at%64 != 0 {
		t.Fatalf("record column starts at %#x, off a 64-byte line boundary", at)
	}
}
