package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"flowsched/internal/lp"
	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// The pipeline's steps by their names, as the tests call them: each runs in
// a fresh workspace, or a fresh slot, so what it returns is the test's to
// keep and shares no memory with the pool.

// firstFit is first fit over win (timeLP.fit).
func firstFit(inst *switchnet.Instance, order []int, win Windows, width int) []int {
	m := &timeLP{win: win}
	return m.fit(inst, order, width)
}

// releaseOrder is the flows in release order (workspace.releaseOrder).
func releaseOrder(inst *switchnet.Instance) []int { return new(workspace).releaseOrder(inst) }

// deadlineOrder is the flows in deadline order (workspace.deadlineOrder).
func deadlineOrder(win Windows) []int { return new(workspace).deadlineOrder(win) }

// fromRelease is the windows [r_e, horizon) (windowStore.fromRelease).
func fromRelease(inst *switchnet.Instance, horizon int) Windows {
	var s windowStore
	return s.fromRelease(inst, horizon)
}

// newWindowSlots numbers win's windows at width (windowSlots.reset).
func newWindowSlots(win Windows, width int) windowSlots {
	var s windowSlots
	s.reset(win, width)
	return s
}

// newTimeLP builds the LP of layout l over win started at placed (nil
// places nothing) in a slot of its own (timeLP.build).
func newTimeLP(inst *switchnet.Instance, win Windows, l layout, placed []int) *timeLP {
	m := &timeLP{win: win, placed: placed}
	m.build(inst, l)
	return m
}

// roundWindowLP is Theorem 3's rounding of m's solution sol.
func roundWindowLP(inst *switchnet.Instance, m *timeLP, sol *lp.Solution) (*TimeConstrainedResult, error) {
	return new(workspace).roundWindowLP(inst, m, sol)
}

// TestWorkspaceCarriesNothing dirties the pool's workspaces with larger and
// differently shaped instances — a cell of the paper's 150-port grid (M=50,
// T=6), and multi-unit demands on capacitated ports — through every entry
// point, from two goroutines — then runs TestPaperModelGolden,
// TestLayoutGolden and TestKernelFingerprint, whose family's hash must not
// move. Whatever an earlier call left in a workspace, a call reads only
// what it wrote.
func TestWorkspaceCarriesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dirt := []*switchnet.Instance{
		workload.PoissonConfig{M: 50, T: 6, Ports: 150}.Generate(rand.New(rand.NewSource(1))),
		capacitatedInstance(rng, 6, 3, 40, 8),
		capacitatedInstance(rng, 9, 2, 60, 5),
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, inst := range dirt {
				if err := dirty(inst); err != nil {
					errs[g] = fmt.Errorf("goroutine %d, instance %d: %w", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	TestPaperModelGolden(t)
	TestLayoutGolden(t)
	TestKernelFingerprint(t)
}

// dirty runs every entry point that takes a workspace on inst: the
// unit-demand ones only where inst has unit demands.
func dirty(inst *switchnet.Instance) error {
	if _, err := ARTLowerBound(inst); err != nil {
		return err
	}
	if inst.UnitDemands() {
		if _, err := SolveART(inst, 1); err != nil {
			return err
		}
	}
	if _, err := MRTLowerBound(inst); err != nil {
		return err
	}
	mrt, err := SolveMRT(inst)
	if err != nil {
		return err
	}
	if _, err := SolveTimeConstrained(inst, ResponseWindows(inst, mrt.Rho+1)); err != nil {
		return err
	}
	TrivialMRTLowerBound(inst)
	return nil
}

// capacitatedInstance is ports x ports, every port of capacity c, with
// flows of demand 1..c released over rounds rounds.
func capacitatedInstance(rng *rand.Rand, ports, c, flows, rounds int) *switchnet.Instance {
	inst := &switchnet.Instance{Switch: switchnet.NewSwitch(ports, ports, c)}
	for range flows {
		inst.Flows = append(inst.Flows, switchnet.Flow{
			In: rng.Intn(ports), Out: rng.Intn(ports), Demand: 1 + rng.Intn(c), Release: rng.Intn(rounds),
		})
	}
	return inst
}
