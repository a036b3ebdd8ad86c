package switchnet

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSwitchShape(t *testing.T) {
	s := NewSwitch(3, 5, 2)
	if s.NumIn() != 3 || s.NumOut() != 5 || s.NumPorts() != 8 {
		t.Fatalf("got (%d,%d,%d), want (3,5,8)", s.NumIn(), s.NumOut(), s.NumPorts())
	}
	for p := 0; p < s.NumPorts(); p++ {
		if s.Cap(p) != 2 {
			t.Fatalf("port %d capacity = %d, want 2", p, s.Cap(p))
		}
	}
}

func TestUnitSwitch(t *testing.T) {
	s := UnitSwitch(4)
	if s.NumIn() != 4 || s.NumOut() != 4 {
		t.Fatalf("unit switch shape wrong: %d x %d", s.NumIn(), s.NumOut())
	}
	if s.Cap(0) != 1 || s.Cap(7) != 1 {
		t.Fatal("unit switch must have unit capacities")
	}
}

func TestPortIndexRoundTrip(t *testing.T) {
	s := NewSwitch(3, 4, 1)
	if s.PortIndex(In, 2) != 2 {
		t.Errorf("input port 2 index = %d", s.PortIndex(In, 2))
	}
	if s.PortIndex(Out, 0) != 3 {
		t.Errorf("output port 0 index = %d", s.PortIndex(Out, 0))
	}
	if s.PortIndex(Out, 3) != 6 {
		t.Errorf("output port 3 index = %d", s.PortIndex(Out, 3))
	}
}

func TestSideString(t *testing.T) {
	if In.String() != "in" || Out.String() != "out" {
		t.Fatal("Side.String mismatch")
	}
}

func TestCapsAndClone(t *testing.T) {
	s := Switch{InCaps: []int{1, 2}, OutCaps: []int{3}}
	caps := s.Caps()
	if len(caps) != 3 || caps[0] != 1 || caps[1] != 2 || caps[2] != 3 {
		t.Fatalf("caps = %v", caps)
	}
	c := s.Clone()
	c.InCaps[0] = 99
	if s.InCaps[0] != 1 {
		t.Fatal("Clone must deep-copy capacities")
	}
}

func validInstance() *Instance {
	return &Instance{
		Switch: NewSwitch(2, 2, 2),
		Flows: []Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 0, Out: 1, Demand: 2, Release: 1},
			{In: 1, Out: 1, Demand: 1, Release: 0},
		},
	}
}

func TestInstanceValidateOK(t *testing.T) {
	if err := validInstance().Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestInstanceValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
		want   string
	}{
		{"bad in port", func(in *Instance) { in.Flows[0].In = 5 }, "input port"},
		{"bad out port", func(in *Instance) { in.Flows[0].Out = -1 }, "output port"},
		{"zero demand", func(in *Instance) { in.Flows[0].Demand = 0 }, "demand"},
		{"negative release", func(in *Instance) { in.Flows[0].Release = -2 }, "release"},
		{"demand exceeds kappa", func(in *Instance) { in.Flows[0].Demand = 3 }, "kappa"},
		{"zero in capacity", func(in *Instance) { in.Switch.InCaps[0] = 0 }, "capacity"},
		{"zero out capacity", func(in *Instance) { in.Switch.OutCaps[1] = -1 }, "capacity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := validInstance()
			tc.mutate(in)
			err := in.Validate()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestInstanceAggregates(t *testing.T) {
	in := validInstance()
	if in.N() != 3 {
		t.Errorf("N = %d", in.N())
	}
	if in.MaxDemand() != 2 {
		t.Errorf("MaxDemand = %d", in.MaxDemand())
	}
	if in.MaxRelease() != 1 {
		t.Errorf("MaxRelease = %d", in.MaxRelease())
	}
	if in.TotalDemand() != 4 {
		t.Errorf("TotalDemand = %d", in.TotalDemand())
	}
	if in.UnitDemands() {
		t.Error("UnitDemands should be false")
	}
	loads := in.PortLoads()
	// input port 0 carries flows 0,1: 1+2=3; input 1 carries flow 2: 1.
	if loads[0] != 3 || loads[1] != 1 {
		t.Errorf("input loads = %v", loads[:2])
	}
	// output port 0 carries flow 0: 1; output 1 carries flows 1,2: 3.
	if loads[2] != 1 || loads[3] != 3 {
		t.Errorf("output loads = %v", loads[2:])
	}
}

func TestKappa(t *testing.T) {
	in := &Instance{
		Switch: Switch{InCaps: []int{5, 1}, OutCaps: []int{3}},
		Flows:  []Flow{{In: 0, Out: 0, Demand: 1}, {In: 1, Out: 0, Demand: 1}},
	}
	if in.Kappa(0) != 3 {
		t.Errorf("kappa(0) = %d, want 3", in.Kappa(0))
	}
	if in.Kappa(1) != 1 {
		t.Errorf("kappa(1) = %d, want 1", in.Kappa(1))
	}
}

func TestCongestionHorizonCoversLoad(t *testing.T) {
	in := validInstance()
	h := in.CongestionHorizon()
	// Port 0 (input) has load 3, capacity 2 => at least 2 rounds, plus
	// release 1 plus d_max 2 slack.
	if h < 2 {
		t.Fatalf("horizon %d too small", h)
	}
}

func TestUnitDemandsTrue(t *testing.T) {
	in := &Instance{Switch: UnitSwitch(2), Flows: []Flow{{In: 0, Out: 1, Demand: 1}}}
	if !in.UnitDemands() {
		t.Fatal("want unit demands")
	}
}

func TestScheduleMetrics(t *testing.T) {
	in := validInstance()
	s := NewSchedule(in.N())
	if s.Complete() {
		t.Fatal("fresh schedule must be incomplete")
	}
	s.Round[0] = 0 // rho = 1
	s.Round[1] = 2 // rho = 2 (released 1)
	s.Round[2] = 3 // rho = 4
	if !s.Complete() {
		t.Fatal("schedule should be complete")
	}
	if got := s.ResponseTime(in, 2); got != 4 {
		t.Errorf("rho_2 = %d, want 4", got)
	}
	if got := s.TotalResponse(in); got != 7 {
		t.Errorf("total = %d, want 7", got)
	}
	if got := s.MaxResponse(in); got != 4 {
		t.Errorf("max = %d, want 4", got)
	}
	if got := s.AvgResponse(in); got < 2.33 || got > 2.34 {
		t.Errorf("avg = %v", got)
	}
	if got := s.Makespan(); got != 4 {
		t.Errorf("makespan = %d, want 4", got)
	}
}

func TestResponseTimePanicsOnUnscheduled(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	in := validInstance()
	NewSchedule(in.N()).ResponseTime(in, 0)
}

func TestScaleAndAddCaps(t *testing.T) {
	caps := []int{1, 2, 3}
	sc := ScaleCaps(caps, 3)
	if sc[0] != 3 || sc[2] != 9 {
		t.Errorf("ScaleCaps = %v", sc)
	}
	ac := AddCaps(caps, 5)
	if ac[0] != 6 || ac[2] != 8 {
		t.Errorf("AddCaps = %v", ac)
	}
	if caps[0] != 1 {
		t.Error("inputs must not be mutated")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := validInstance()
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != in.N() || got.Switch.NumIn() != 2 || got.Flows[1] != in.Flows[1] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadInstanceRejectsInvalid(t *testing.T) {
	bad := `{"in_caps":[1],"out_caps":[1],"flows":[{"in":5,"out":0,"demand":1,"release":0}]}`
	if _, err := ReadInstance(strings.NewReader(bad)); err == nil {
		t.Fatal("invalid instance accepted")
	}
	if _, err := ReadInstance(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad json accepted")
	}
}

// randomInstance builds a random valid instance for property tests.
func randomInstance(rng *rand.Rand, maxPorts, maxFlows int) *Instance {
	m := 1 + rng.Intn(maxPorts)
	mp := 1 + rng.Intn(maxPorts)
	sw := NewSwitch(m, mp, 1+rng.Intn(3))
	n := rng.Intn(maxFlows + 1)
	flows := make([]Flow, n)
	for i := range flows {
		in := rng.Intn(m)
		out := rng.Intn(mp)
		k := sw.InCaps[in]
		if sw.OutCaps[out] < k {
			k = sw.OutCaps[out]
		}
		flows[i] = Flow{In: in, Out: out, Demand: 1 + rng.Intn(k), Release: rng.Intn(10)}
	}
	return &Instance{Switch: sw, Flows: flows}
}

func TestQuickRandomInstancesValidate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 6, 20)
		return in.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: on a schedule where each flow runs alone in its own round past
// all releases, the metrics are consistent with each other. That such a
// schedule is feasible is the oracle's to say; verify's
// TestReportMatchesScheduleMethods checks it on the same shape.
func TestQuickSerialScheduleAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 5, 15)
		s := NewSchedule(in.N())
		t0 := in.MaxRelease() + 1
		for i := range s.Round {
			s.Round[i] = t0 + i
		}
		// total >= max >= 1 (when nonempty), total >= n.
		if in.N() > 0 {
			total := s.TotalResponse(in)
			max := s.MaxResponse(in)
			if max < 1 || total < max || total < in.N() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: JSON round trip preserves the instance exactly.
func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 4, 12)
		var buf bytes.Buffer
		if err := WriteInstance(&buf, in); err != nil {
			return false
		}
		got, err := ReadInstance(&buf)
		if err != nil {
			return false
		}
		if got.N() != in.N() {
			return false
		}
		for i := range in.Flows {
			if got.Flows[i] != in.Flows[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
