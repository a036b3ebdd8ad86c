package coflow

import (
	"math/rand"
	"testing"

	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
	"flowsched/internal/workload"
)

// randomCoflows builds an instance with nC coflows of 1-4 members each.
func randomCoflows(rng *rand.Rand, m, nC int) *Instance {
	in := &Instance{Switch: switchnet.UnitSwitch(m)}
	for c := 0; c < nC; c++ {
		cf := Coflow{Release: rng.Intn(5)}
		k := 1 + rng.Intn(4)
		for i := 0; i < k; i++ {
			cf.Members = append(cf.Members, switchnet.Flow{
				In: rng.Intn(m), Out: rng.Intn(m), Demand: 1,
			})
		}
		in.Coflows = append(in.Coflows, cf)
	}
	return in
}

func TestFlattenOwners(t *testing.T) {
	in := &Instance{
		Switch: switchnet.UnitSwitch(2),
		Coflows: []Coflow{
			{Release: 1, Members: []switchnet.Flow{{In: 0, Out: 0, Demand: 1}, {In: 1, Out: 1, Demand: 1}}},
			{Release: 3, Members: []switchnet.Flow{{In: 0, Out: 1, Demand: 1}}},
		},
	}
	flat, owner := in.Flatten()
	if flat.N() != 3 {
		t.Fatalf("n = %d", flat.N())
	}
	if owner[0] != 0 || owner[1] != 0 || owner[2] != 1 {
		t.Fatalf("owner = %v", owner)
	}
	if flat.Flows[0].Release != 1 || flat.Flows[2].Release != 3 {
		t.Fatal("coflow release not applied to members")
	}
}

func TestValidate(t *testing.T) {
	bad := &Instance{Switch: switchnet.UnitSwitch(1), Coflows: []Coflow{{Release: 0}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty coflow accepted")
	}
	bad2 := &Instance{Switch: switchnet.UnitSwitch(1), Coflows: []Coflow{
		{Release: -1, Members: []switchnet.Flow{{In: 0, Out: 0, Demand: 1}}},
	}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("negative release accepted")
	}
}

func TestEvaluateCompletionSemantics(t *testing.T) {
	in := &Instance{
		Switch: switchnet.UnitSwitch(2),
		Coflows: []Coflow{
			{Release: 0, Members: []switchnet.Flow{
				{In: 0, Out: 0, Demand: 1},
				{In: 1, Out: 1, Demand: 1},
			}},
		},
	}
	_, owner := in.Flatten()
	s := &switchnet.Schedule{Round: []int{0, 4}}
	res, err := Evaluate(in, owner, s)
	if err != nil {
		t.Fatal(err)
	}
	// Coflow completes with its LAST member: round 4 -> completion 5.
	if res.Completion[0] != 5 || res.Response[0] != 5 {
		t.Fatalf("completion=%d response=%d, want 5, 5", res.Completion[0], res.Response[0])
	}
	if res.MaxResponse != 5 || res.AvgResponse() != 5 {
		t.Fatal("aggregates wrong")
	}
}

func TestEvaluateRejectsIncomplete(t *testing.T) {
	in := randomCoflows(rand.New(rand.NewSource(1)), 2, 2)
	flat, owner := in.Flatten()
	s := switchnet.NewSchedule(flat.N())
	if _, err := Evaluate(in, owner, s); err == nil {
		t.Fatal("incomplete schedule accepted")
	}
}

func TestPoliciesProduceValidSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		in := randomCoflows(rng, 3, 4)
		for _, mk := range []func([]int) stream.Policy{SCF, SEBF, func(o []int) stream.Policy { return FIFO(in, o) }} {
			cfRes, simRes, err := Run(in, mk)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			flat, _ := in.Flatten()
			if _, err := verify.CheckSchedule(flat, simRes.Schedule, flat.Switch.Caps()); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if cfRes.TotalResponse < len(in.Coflows) {
				t.Fatalf("trial %d: total %d below one round per coflow", trial, cfRes.TotalResponse)
			}
		}
	}
}

func TestSEBFBeatsFIFOOnSkew(t *testing.T) {
	// One huge coflow released first, many tiny coflows after: SEBF should
	// not trap the tiny coflows behind the elephant the way FIFO does.
	in := &Instance{Switch: switchnet.UnitSwitch(4)}
	big := Coflow{Release: 0}
	for i := 0; i < 12; i++ {
		big.Members = append(big.Members, switchnet.Flow{In: 0, Out: 1, Demand: 1})
	}
	in.Coflows = append(in.Coflows, big)
	for i := 0; i < 6; i++ {
		in.Coflows = append(in.Coflows, Coflow{
			Release: 1,
			Members: []switchnet.Flow{{In: 0, Out: 1, Demand: 1}},
		})
	}
	sebf, _, err := Run(in, SEBF)
	if err != nil {
		t.Fatal(err)
	}
	fifo, _, err := Run(in, func(o []int) stream.Policy { return FIFO(in, o) })
	if err != nil {
		t.Fatal(err)
	}
	if sebf.TotalResponse >= fifo.TotalResponse {
		t.Fatalf("SEBF total %d not better than FIFO %d on skewed workload",
			sebf.TotalResponse, fifo.TotalResponse)
	}
}

func TestSCFOrdersBySize(t *testing.T) {
	// Two coflows on the same port pair, sizes 1 and 3, released together:
	// SCF finishes the small one first.
	in := &Instance{
		Switch: switchnet.UnitSwitch(1),
		Coflows: []Coflow{
			{Release: 0, Members: []switchnet.Flow{
				{In: 0, Out: 0, Demand: 1}, {In: 0, Out: 0, Demand: 1}, {In: 0, Out: 0, Demand: 1},
			}},
			{Release: 0, Members: []switchnet.Flow{{In: 0, Out: 0, Demand: 1}}},
		},
	}
	res, _, err := Run(in, SCF)
	if err != nil {
		t.Fatal(err)
	}
	if res.Response[1] != 1 {
		t.Fatalf("small coflow response = %d, want 1", res.Response[1])
	}
	if res.Response[0] != 4 {
		t.Fatalf("large coflow response = %d, want 4", res.Response[0])
	}
}

func TestRunOnPoissonDerivedCoflows(t *testing.T) {
	// Group a Poisson flow instance into coflows of 3 to stress the
	// policies on realistic traffic.
	rng := rand.New(rand.NewSource(5))
	base := workload.PoissonConfig{M: 6, T: 5, Ports: 4}.Generate(rng)
	in := &Instance{Switch: base.Switch}
	var cur Coflow
	for i, f := range base.Flows {
		if len(cur.Members) == 0 {
			cur.Release = f.Release
		}
		f.Release = 0
		cur.Members = append(cur.Members, f)
		if len(cur.Members) == 3 || i == len(base.Flows)-1 {
			in.Coflows = append(in.Coflows, cur)
			cur = Coflow{}
		}
	}
	if len(in.Coflows) == 0 {
		t.Skip("empty draw")
	}
	for _, mk := range []func([]int) stream.Policy{SCF, SEBF} {
		if _, _, err := Run(in, mk); err != nil {
			t.Fatal(err)
		}
	}
}
