package coflow_test

import (
	"fmt"
	"math/rand"

	"flowsched/internal/coflow"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// ExampleRun schedules a skewed job mix whose shuffles are coflows —
// groups of flows that help their job only once all of them finish (the
// Section 6 generalization). The coflow-aware policies, SEBF from Varys
// and smallest-coflow-first, keep the mice out from behind the elephants;
// coflow-oblivious FIFO does not.
func ExampleRun() {
	const m = 8
	rng := rand.New(rand.NewSource(11))
	in := &coflow.Instance{Switch: switchnet.UnitSwitch(m)}
	for e := 0; e < 2; e++ { // two elephant shuffles
		cf := coflow.Coflow{Release: e}
		for i := 0; i < 24; i++ {
			cf.Members = append(cf.Members, switchnet.Flow{In: rng.Intn(m), Out: rng.Intn(m), Demand: 1})
		}
		in.Coflows = append(in.Coflows, cf)
	}
	for t := 0; t < 10; t++ { // and a stream of interactive mice
		in.Coflows = append(in.Coflows, coflow.Coflow{
			Release: t,
			Members: []switchnet.Flow{
				{In: rng.Intn(m), Out: rng.Intn(m), Demand: 1},
				{In: rng.Intn(m), Out: rng.Intn(m), Demand: 1},
			},
		})
	}
	for _, p := range []struct {
		name string
		mk   func(owner []int) stream.Policy
	}{
		{"FIFO", func(owner []int) stream.Policy { return coflow.FIFO(in, owner) }},
		{"SCF", coflow.SCF},
		{"SEBF", coflow.SEBF},
	} {
		res, _, _ := coflow.Run(in, p.mk)
		fmt.Printf("%-4s avg coflow response %.2f, max %d\n", p.name, res.AvgResponse(), res.MaxResponse)
	}
	// Output:
	// FIFO avg coflow response 7.58, max 10
	// SCF  avg coflow response 3.17, max 17
	// SEBF avg coflow response 3.17, max 17
}
