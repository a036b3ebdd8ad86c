package verify

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flowsched/internal/switchnet"
)

// twoFlowInstance returns two unit flows contending for output 0 on a 2x2
// unit switch.
func twoFlowInstance() *switchnet.Instance {
	return &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 1},
		},
	}
}

func TestCheckScheduleFeasible(t *testing.T) {
	inst := twoFlowInstance()
	sched := &switchnet.Schedule{Round: []int{0, 1}}
	rep, err := CheckSchedule(inst, sched, inst.Switch.Caps())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Scheduled != 2 || rep.DeliveredDemand != 2 || rep.TotalDemand != 2 {
		t.Fatalf("delivery accounting wrong: %+v", rep)
	}
	// Responses: flow 0: 0+1-0 = 1; flow 1: 1+1-1 = 1.
	if rep.TotalResponse != 2 || rep.MaxResponse != 1 || rep.AvgResponse != 1 {
		t.Fatalf("metrics wrong: %+v", rep)
	}
	if rep.Makespan != 2 {
		t.Fatalf("makespan = %d, want 2", rep.Makespan)
	}
}

func TestCheckScheduleUnscheduledFlow(t *testing.T) {
	inst := twoFlowInstance()
	sched := &switchnet.Schedule{Round: []int{0, switchnet.Unscheduled}}
	rep, err := CheckSchedule(inst, sched, inst.Switch.Caps())
	if err == nil {
		t.Fatal("want error for unscheduled flow")
	}
	if rep.Scheduled != 1 || rep.DeliveredDemand != 1 || rep.TotalDemand != 2 {
		t.Fatalf("partial delivery accounting wrong: %+v", rep)
	}
	if !strings.Contains(rep.Violations[0], "unscheduled") {
		t.Fatalf("violation = %q", rep.Violations[0])
	}
}

func TestCheckScheduleBeforeRelease(t *testing.T) {
	inst := twoFlowInstance()
	sched := &switchnet.Schedule{Round: []int{0, 0}} // flow 1 released at 1
	rep, err := CheckSchedule(inst, sched, switchnet.ScaleCaps(inst.Switch.Caps(), 2))
	if err == nil {
		t.Fatal("want error for scheduling before release")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "before release") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations = %v", rep.Violations)
	}
}

func TestCheckScheduleOverload(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 0},
		},
	}
	sched := &switchnet.Schedule{Round: []int{0, 0}} // output 0 doubly loaded
	rep, err := CheckSchedule(inst, sched, inst.Switch.Caps())
	if err == nil {
		t.Fatal("want overload error")
	}
	if rep.MaxOverload != 1 {
		t.Fatalf("MaxOverload = %d, want 1", rep.MaxOverload)
	}
	// The same schedule passes under doubled capacities.
	if _, err := CheckScaled(inst, sched, 2); err != nil {
		t.Fatal(err)
	}
	// And under +1 additive augmentation.
	if _, err := CheckAugmented(inst, sched, 1); err != nil {
		t.Fatal(err)
	}
}

// TestMaxExcess pins the signed excess on its three regimes: positive on
// an overload (and equal to MaxOverload), zero on a port loaded exactly
// to capacity, negative when every loaded port has room, and math.MinInt
// when nothing loads a port. Raising every capacity by delta lowers it by
// exactly delta, which is what lets one check at raised capacities read
// the overload against the raw ones.
func TestMaxExcess(t *testing.T) {
	sw := switchnet.NewSwitch(2, 2, 2) // capacity 2 on every port
	two := []switchnet.Flow{{In: 0, Out: 0, Demand: 1}, {In: 1, Out: 0, Demand: 1}}
	for _, tc := range []struct {
		name   string
		flows  []switchnet.Flow
		rounds []int
		delta  int
		excess int
	}{
		{"overload", append(two, switchnet.Flow{In: 1, Out: 0, Demand: 1}), []int{0, 0, 0}, 0, 1},
		{"overload under +3", append(two, switchnet.Flow{In: 1, Out: 0, Demand: 1}), []int{0, 0, 0}, 3, -2},
		{"at capacity", two, []int{0, 0}, 0, 0},
		{"room to spare", two, []int{0, 1}, 0, -1},
		{"unscheduled", two, []int{switchnet.Unscheduled, switchnet.Unscheduled}, 0, math.MinInt},
		{"no flows", nil, nil, 0, math.MinInt},
	} {
		inst := &switchnet.Instance{Switch: sw, Flows: tc.flows}
		rep, _ := CheckAugmented(inst, &switchnet.Schedule{Round: tc.rounds}, tc.delta)
		if rep.MaxExcess != tc.excess || rep.MaxOverload != max(tc.excess, 0) {
			t.Errorf("%s: MaxExcess %d, MaxOverload %d; want %d and %d", tc.name, rep.MaxExcess, rep.MaxOverload, tc.excess, max(tc.excess, 0))
		}
	}
}

func TestCheckScheduleStructuralErrors(t *testing.T) {
	inst := twoFlowInstance()
	if _, err := CheckSchedule(inst, &switchnet.Schedule{Round: []int{0}}, inst.Switch.Caps()); err == nil {
		t.Fatal("want length-mismatch error")
	}
	if _, err := CheckSchedule(inst, &switchnet.Schedule{Round: []int{0, 1}}, []int{1}); err == nil {
		t.Fatal("want capacity-count error")
	}
	if _, err := CheckSchedule(nil, &switchnet.Schedule{}, nil); err == nil {
		t.Fatal("want nil-instance error")
	}
	if _, err := CheckSchedule(inst, nil, inst.Switch.Caps()); err == nil {
		t.Fatal("want nil-schedule error")
	}
}

// TestReportMatchesScheduleMethods cross-checks the oracle's recomputed
// metrics against the switchnet.Schedule methods on random feasible-by-
// construction schedules (each flow in its own round): unit flows on unit
// switches, then flows of demand up to the capacity on rectangular
// switches of capacity 1 to 3.
func TestReportMatchesScheduleMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(4)
		n := 1 + rng.Intn(12)
		sw := switchnet.UnitSwitch(m)
		if trial >= 20 {
			sw = switchnet.NewSwitch(m, 1+rng.Intn(5), 1+rng.Intn(3))
		}
		inst := &switchnet.Instance{Switch: sw}
		sched := switchnet.NewSchedule(n)
		for f := 0; f < n; f++ {
			d := 1
			if trial >= 20 {
				d += rng.Intn(sw.InCaps[0])
			}
			inst.Flows = append(inst.Flows, switchnet.Flow{
				In: rng.Intn(m), Out: rng.Intn(sw.NumOut()), Demand: d, Release: rng.Intn(5),
			})
		}
		// One flow per round (past its release): feasible on any switch.
		used := map[int]bool{}
		for f := 0; f < n; f++ {
			t := inst.Flows[f].Release
			for used[t] {
				t++
			}
			used[t] = true
			sched.Round[f] = t
		}
		rep, err := CheckSchedule(inst, sched, inst.Switch.Caps())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if rep.TotalResponse != sched.TotalResponse(inst) {
			t.Fatalf("trial %d: total %d vs %d", trial, rep.TotalResponse, sched.TotalResponse(inst))
		}
		if rep.MaxResponse != sched.MaxResponse(inst) {
			t.Fatalf("trial %d: max %d vs %d", trial, rep.MaxResponse, sched.MaxResponse(inst))
		}
		if rep.AvgResponse != sched.AvgResponse(inst) {
			t.Fatalf("trial %d: avg %v vs %v", trial, rep.AvgResponse, sched.AvgResponse(inst))
		}
		if rep.Makespan != sched.Makespan() {
			t.Fatalf("trial %d: makespan %d vs %d", trial, rep.Makespan, sched.Makespan())
		}
	}
}

// referenceCheck is the oracle as it stood before the round-ordered sweep:
// one hash-map entry per (port, round), overloads reported by a second pass
// over the flows. It is kept as the differential reference for Checker —
// simple enough to trust by reading — and trusts Flow.In/Out/Demand, so it
// is only fed well-formed flows.
func referenceCheck(inst *switchnet.Instance, sched *switchnet.Schedule, caps []int) *Report {
	rep := &Report{Flows: len(inst.Flows), MaxExcess: math.MinInt}
	type pr struct{ port, round int }
	loads := make(map[pr]int)
	for f, e := range inst.Flows {
		rep.TotalDemand += e.Demand
		t := sched.Round[f]
		if t == switchnet.Unscheduled {
			rep.violate("flow %d is unscheduled", f)
			continue
		}
		if t < 0 {
			rep.violate("flow %d assigned negative round %d", f, t)
			continue
		}
		rep.Scheduled++
		rep.DeliveredDemand += e.Demand
		if t < e.Release {
			rep.violate("flow %d scheduled at round %d before release %d", f, t, e.Release)
		}
		resp := t + 1 - e.Release
		rep.TotalResponse += resp
		if resp > rep.MaxResponse {
			rep.MaxResponse = resp
		}
		if t+1 > rep.Makespan {
			rep.Makespan = t + 1
		}
		loads[pr{inst.Switch.PortIndex(switchnet.In, e.In), t}] += e.Demand
		loads[pr{inst.Switch.PortIndex(switchnet.Out, e.Out), t}] += e.Demand
	}
	if rep.Scheduled > 0 {
		rep.AvgResponse = float64(rep.TotalResponse) / float64(rep.Scheduled)
	}
	for key, load := range loads {
		rep.MaxExcess = max(rep.MaxExcess, load-caps[key.port])
	}
	rep.MaxOverload = max(rep.MaxExcess, 0)
	if rep.MaxOverload > 0 {
		seen := make(map[pr]bool)
		for f, e := range inst.Flows {
			t := sched.Round[f]
			if t == switchnet.Unscheduled || t < 0 {
				continue
			}
			for _, key := range []pr{
				{inst.Switch.PortIndex(switchnet.In, e.In), t},
				{inst.Switch.PortIndex(switchnet.Out, e.Out), t},
			} {
				if seen[key] {
					continue
				}
				seen[key] = true
				if load := loads[key]; load > caps[key.port] {
					rep.violate("round %d: port %d loaded %d > capacity %d", key.round, key.port, load, caps[key.port])
				}
			}
		}
	}
	return rep
}

// sameVerdict fails the test unless got carries the verdict of want: every
// scalar field equal, the same number of recorded violations, and — when
// the list was not truncated at maxViolations — the same violations as a
// set (the sweep names overloads round by round, the reference flow by
// flow).
func sameVerdict(t *testing.T, label string, got, want *Report) {
	t.Helper()
	g, w := *got, *want
	g.Violations, w.Violations = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: scalar fields differ:\n got %+v\nwant %+v", label, g, w)
	}
	if len(got.Violations) != len(want.Violations) {
		t.Fatalf("%s: %d violations, want %d:\n got %q\nwant %q", label, len(got.Violations), len(want.Violations), got.Violations, want.Violations)
	}
	if len(want.Violations) < maxViolations {
		gs, ws := slices.Sorted(slices.Values(got.Violations)), slices.Sorted(slices.Values(want.Violations))
		if !slices.Equal(gs, ws) {
			t.Fatalf("%s: violation sets differ:\n got %q\nwant %q", label, gs, ws)
		}
	}
}

// TestCheckerMatchesReference is the randomised differential test: the
// sweep and the map-based reference agree on feasible and deliberately
// overloaded schedules, with rounds sorted or not, dense or 2^40 apart
// (which a round x port table would not survive), multi-unit demands,
// non-uniform and augmented capacities, and the per-flow violations mixed
// in.
func TestCheckerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 400; trial++ {
		nIn, nOut := 1+rng.Intn(5), 1+rng.Intn(5)
		inst := &switchnet.Instance{Switch: switchnet.NewSwitch(nIn, nOut, 1)}
		for i := range inst.Switch.InCaps {
			inst.Switch.InCaps[i] = 1 + rng.Intn(3)
		}
		for j := range inst.Switch.OutCaps {
			inst.Switch.OutCaps[j] = 1 + rng.Intn(3)
		}
		n := rng.Intn(40)
		span := 1 + rng.Intn(2*n+1) // small spans overload, large ones rarely do
		sorted, sparse := rng.Intn(2) == 0, rng.Intn(4) == 0
		sched := switchnet.NewSchedule(n)
		for f := 0; f < n; f++ {
			inst.Flows = append(inst.Flows, switchnet.Flow{
				In: rng.Intn(nIn), Out: rng.Intn(nOut), Demand: 1 + rng.Intn(3), Release: rng.Intn(4),
			})
			r := rng.Intn(span)
			if sparse && r%2 == 1 {
				r += 1 << 40
			}
			sched.Round[f] = inst.Flows[f].Release + r
		}
		if sorted {
			slices.Sort(sched.Round)
		}
		if n > 0 && rng.Intn(5) == 0 {
			// Per-flow violations, after sorting so they sit anywhere.
			sched.Round[rng.Intn(n)] = switchnet.Unscheduled
			sched.Round[rng.Intn(n)] = -2 - rng.Intn(3)
			sched.Round[rng.Intn(n)] = 0
		}
		caps := inst.Switch.Caps()
		switch rng.Intn(3) {
		case 1:
			caps = switchnet.ScaleCaps(caps, 2)
		case 2:
			caps = switchnet.AddCaps(caps, 1+rng.Intn(4))
		}
		got, err := CheckSchedule(inst, sched, caps)
		if got == nil {
			t.Fatalf("trial %d: structural error on a well-formed input: %v", trial, err)
		}
		want := referenceCheck(inst, sched, caps)
		sameVerdict(t, fmt.Sprintf("trial %d", trial), got, want)
		if (err == nil) != want.Feasible() {
			t.Fatalf("trial %d: err = %v, reference feasible = %v", trial, err, want.Feasible())
		}
		if want.Feasible() {
			feasible++
		} else {
			infeasible++
		}
	}
	if feasible < 40 || infeasible < 40 {
		t.Fatalf("generator is lopsided: %d feasible, %d infeasible", feasible, infeasible)
	}
}

// TestViolationOrderGolden pins the documented order: per-flow violations
// in flow order, then overloads by ascending round and, within a round, by
// the first flow that touches the port (input before output) — whatever
// order the flows arrive in.
func TestViolationOrderGolden(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1}, // round 5
			{In: 1, Out: 0, Demand: 1}, // round 5: output 0 (port 2) doubly loaded
			{In: 1, Out: 1, Demand: 1}, // unscheduled
			{In: 0, Out: 1, Demand: 1}, // round 2
			{In: 0, Out: 1, Demand: 1}, // round 2: input 0 and output 1 (port 3) doubly loaded
		},
	}
	sched := &switchnet.Schedule{Round: []int{5, 5, switchnet.Unscheduled, 2, 2}}
	rep, err := CheckSchedule(inst, sched, inst.Switch.Caps())
	want := []string{
		"flow 2 is unscheduled",
		"round 2: port 0 loaded 2 > capacity 1",
		"round 2: port 3 loaded 2 > capacity 1",
		"round 5: port 2 loaded 2 > capacity 1",
	}
	if !slices.Equal(rep.Violations, want) {
		t.Fatalf("violations:\n got %q\nwant %q", rep.Violations, want)
	}
	if err == nil || !strings.Contains(err.Error(), "flow 2 is unscheduled (and 3 more violations)") {
		t.Fatalf("err = %v", err)
	}
	sameVerdict(t, "golden", rep, referenceCheck(inst, sched, inst.Switch.Caps()))
}

// TestCheckScheduleMalformedFlows: a flow whose ports are not on the switch
// or whose demand is not positive is reported, not trusted. Before the
// bounds checks In -1 and In 4 panicked in the capacity loop, In 2 was
// counted against output 0 (global port 2) and Demand -1 lowered the load.
// Flow 0 fills output 0 in round 0; the malformed flow 1 shares the round
// and must neither overload nor relieve any port.
func TestCheckScheduleMalformedFlows(t *testing.T) {
	for _, tc := range []struct {
		name string
		flow switchnet.Flow
		want string
	}{
		{"input below range", switchnet.Flow{In: -1, Out: 0, Demand: 1}, "flow 1 input port -1 outside"},
		{"input aliasing output 0", switchnet.Flow{In: 2, Out: 1, Demand: 1}, "flow 1 input port 2 outside"},
		{"input above every port", switchnet.Flow{In: 4, Out: 0, Demand: 1}, "flow 1 input port 4 outside"},
		{"output below range", switchnet.Flow{In: 1, Out: -1, Demand: 1}, "flow 1 output port -1 outside"},
		{"output above range", switchnet.Flow{In: 1, Out: 2, Demand: 1}, "flow 1 output port 2 outside"},
		{"zero demand", switchnet.Flow{In: 1, Out: 0, Demand: 0}, "flow 1 demand 0 is not positive"},
		{"negative demand", switchnet.Flow{In: 0, Out: 0, Demand: -1}, "flow 1 demand -1 is not positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := &switchnet.Instance{
				Switch: switchnet.UnitSwitch(2),
				Flows:  []switchnet.Flow{{In: 0, Out: 0, Demand: 1}, tc.flow},
			}
			sched := &switchnet.Schedule{Round: []int{0, 0}}
			rep, err := CheckSchedule(inst, sched, inst.Switch.Caps())
			if err == nil || rep == nil {
				t.Fatalf("malformed flow accepted: report %+v, err %v", rep, err)
			}
			if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], tc.want) {
				t.Fatalf("violations = %q, want exactly one containing %q", rep.Violations, tc.want)
			}
			// Only flow 0 counts: the malformed flow adds no demand, no
			// delivery, no response and no load.
			if rep.Flows != 2 || rep.Scheduled != 1 || rep.TotalDemand != 1 || rep.DeliveredDemand != 1 ||
				rep.TotalResponse != 1 || rep.MaxOverload != 0 {
				t.Fatalf("malformed flow leaked into the accounting: %+v", rep)
			}
		})
	}
}

// TestCheckerReuse: a Checker carried across windows gives each the report
// a fresh one would — nothing of an earlier, larger or infeasible instance
// (port loads, touched ports, the violation list, the flow index) leaks
// into the next.
func TestCheckerReuse(t *testing.T) {
	big := &switchnet.Instance{Switch: switchnet.NewSwitch(6, 5, 2)}
	bigSched := switchnet.NewSchedule(0)
	for f := 0; f < 60; f++ {
		big.Flows = append(big.Flows, switchnet.Flow{In: f % 6, Out: (f / 2) % 5, Demand: 1 + f%2, Release: f % 3})
		bigSched.Round = append(bigSched.Round, 9-f%10) // unsorted, overloaded
	}
	small := twoFlowInstance()
	smallSched := &switchnet.Schedule{Round: []int{0, 1}}

	var c Checker
	for i, w := range []struct {
		inst  *switchnet.Instance
		sched *switchnet.Schedule
	}{{big, bigSched}, {small, smallSched}, {big, bigSched}, {small, smallSched}} {
		got, gotErr := c.Check(w.inst, w.sched, w.inst.Switch.Caps())
		want, wantErr := CheckSchedule(w.inst, w.sched, w.inst.Switch.Caps())
		if !slices.Equal(got.Violations, want.Violations) {
			t.Fatalf("window %d: violations differ:\n got %q\nwant %q", i, got.Violations, want.Violations)
		}
		sameVerdict(t, fmt.Sprintf("window %d", i), got, want)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("window %d: err %v, want %v", i, gotErr, wantErr)
		}
		if i%2 == 0 && got.Feasible() {
			t.Fatalf("window %d: the overloaded instance passed", i)
		}
		if i%2 == 1 && !got.Feasible() {
			t.Fatalf("window %d: the feasible instance inherited violations: %q", i, got.Violations)
		}
	}
}

// TestCheckerWarmZeroAlloc: re-checking a feasible window the Checker has
// already seen touches the allocator not at all — in round order or out of
// it.
func TestCheckerWarmZeroAlloc(t *testing.T) {
	inst := &switchnet.Instance{Switch: switchnet.UnitSwitch(8)}
	sched := switchnet.NewSchedule(0)
	for r := 0; r < 32; r++ {
		for i := 0; i < 8; i++ {
			inst.Flows = append(inst.Flows, switchnet.Flow{In: i, Out: (i + r) % 8, Demand: 1, Release: r})
			sched.Round = append(sched.Round, r)
		}
	}
	caps := inst.Switch.Caps()
	for _, order := range []string{"sorted", "reversed"} {
		if order == "reversed" {
			slices.Reverse(inst.Flows)
			slices.Reverse(sched.Round)
		}
		var c Checker
		if _, err := c.Check(inst, sched, caps); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if _, err := c.Check(inst, sched, caps); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: warmed Check performed %v allocs, want 0", order, allocs)
		}
	}
}

// fuzzWindow decodes bytes into a small instance, schedule and capacity
// vector: two bytes of switch shape, one of augmentation, one capacity per
// port, then five bytes per flow. Byte values 254 and 255 produce the
// malformed fields (ports off the switch, non-positive demands) and the
// top of the round byte the sparse, unscheduled and negative rounds.
func fuzzWindow(data []byte) (inst *switchnet.Instance, sched *switchnet.Schedule, caps []int, wellFormed bool) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nIn, nOut := 1+int(next()%4), 1+int(next()%4)
	aug := int(next() % 4)
	inst = &switchnet.Instance{Switch: switchnet.NewSwitch(nIn, nOut, 1)}
	for i := range inst.Switch.InCaps {
		inst.Switch.InCaps[i] = 1 + int(next()%3)
	}
	for j := range inst.Switch.OutCaps {
		inst.Switch.OutCaps[j] = 1 + int(next()%3)
	}
	caps = switchnet.AddCaps(inst.Switch.Caps(), aug)
	field := func(b byte, n int) int {
		switch b {
		case 255:
			return n
		case 254:
			return -1
		}
		return int(b) % n
	}
	sched = switchnet.NewSchedule(0)
	wellFormed = true
	for len(data) > 0 && len(inst.Flows) < 64 {
		e := switchnet.Flow{In: field(next(), nIn), Out: field(next(), nOut), Demand: 1 + field(next(), 3), Release: int(next() % 4)}
		if e.In < 0 || e.In >= nIn || e.Out < 0 || e.Out >= nOut || e.Demand <= 0 {
			wellFormed = false
		}
		var r int
		switch b := next(); {
		case b < 200:
			r = int(b % 16)
		case b < 220:
			r = 1<<40 + int(b%4)
		case b < 240:
			r = switchnet.Unscheduled
		default:
			r = -2 - int(b%4)
		}
		inst.Flows = append(inst.Flows, e)
		sched.Round = append(sched.Round, r)
	}
	return inst, sched, caps, wellFormed
}

// FuzzCheckSchedule drives the oracle from arbitrary bytes. On well-formed
// flows its verdict is the reference's; on malformed ones (where the
// reference would panic or mis-attribute) it must report and not panic.
func FuzzCheckSchedule(f *testing.F) {
	// Each seed is a 2x2 unit switch (seven header bytes), then five
	// bytes per flow: in, out, demand-1, release, round code.
	head := []byte{1, 1, 0, 0, 0, 0, 0}
	seed := func(flows ...byte) { f.Add(append(slices.Clone(head), flows...)) }
	seed(0, 0, 0, 0, 0, 1, 0, 0, 0, 0)                    // output 0 doubly loaded in round 0
	seed(0, 0, 0, 0, 9, 1, 1, 0, 0, 3, 0, 1, 1, 0, 3)     // unsorted rounds, multi-unit demand
	seed(0, 0, 0, 0, 205, 1, 0, 0, 0, 205)                // the same overload at round 2^40+1
	seed(255, 0, 0, 0, 0, 0, 0, 254, 0, 0)                // input off the switch, zero demand
	seed(0, 0, 0, 0, 230, 1, 1, 0, 0, 250, 0, 1, 0, 3, 1) // unscheduled, negative, before release
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, sched, caps, wellFormed := fuzzWindow(data)
		got, err := CheckSchedule(inst, sched, caps)
		if got == nil {
			t.Fatalf("structural error on a structurally sound input: %v", err)
		}
		if (err == nil) != got.Feasible() {
			t.Fatalf("err = %v but Feasible() = %v", err, got.Feasible())
		}
		if !wellFormed {
			if got.Feasible() {
				t.Fatalf("malformed flows accepted: %+v", inst.Flows)
			}
			return
		}
		sameVerdict(t, "fuzz", got, referenceCheck(inst, sched, caps))
	})
}
