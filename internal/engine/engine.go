// Package engine is the sharded, deterministic scenario engine: it runs any
// registered solver (the paper's offline algorithms, the online heuristics,
// the coflow policies) against any workload generator over a bounded worker
// pool, verifies every produced schedule with the internal/verify oracle
// under the solver's own declared capacity augmentation, and collects the
// per-scenario verdicts into a single result table.
//
// Determinism: each scenario carries its own seed, the generator draws from
// a rand.Rand private to the scenario, and results land at the scenario's
// input index — so a sweep's result table is a pure function of
// (scenarios, seeds) regardless of worker count or scheduling order.
package engine

import (
	"fmt"
	"math/rand"

	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
)

// Generator produces problem instances from a scenario-private RNG.
type Generator interface {
	// Name identifies the workload in result tables.
	Name() string
	// Generate draws one instance. Implementations must derive all
	// randomness from rng so scenarios replay bit-identically.
	Generate(rng *rand.Rand) *switchnet.Instance
}

// Solution is a solver's output: the schedule plus the per-port capacities
// (global index order) under which the solver claims it is feasible — the
// paper's resource-augmentation contract made explicit so the verify oracle
// can hold every solver to its own theorem.
type Solution struct {
	Schedule *switchnet.Schedule
	// Caps are the capacities the schedule is claimed feasible under
	// (e.g. ScaleCaps(caps, 1+c) for Theorem 1, AddCaps(caps, 2*d_max-1)
	// for Theorem 3, the raw capacities for runtime policies).
	Caps []int
	// Stats carries solver-specific diagnostics (LP pivots, rho guesses,
	// simulated rounds, ...).
	Stats map[string]float64
}

// Solver schedules an instance.
type Solver interface {
	// Name identifies the solver in result tables.
	Name() string
	// Solve schedules inst. It must not mutate inst.
	Solve(inst *switchnet.Instance) (*Solution, error)
}

// Scenario is one cell of a sweep: a seeded workload draw handed to one
// solver.
type Scenario struct {
	// Label tags the scenario in tables (defaults to "workload/solver").
	Label string
	// Seed drives the generator's private RNG.
	Seed int64
	// Workload generates the instance; Solver schedules it.
	Workload Generator
	Solver   Solver
}

// Verdict is the engine's judgment of one scenario: what the solver
// produced and whether the verify oracle accepted it.
type Verdict struct {
	Scenario Scenario
	// N is the generated instance's flow count.
	N int
	// Solution is the solver output (nil if the solver errored).
	Solution *Solution
	// Report is the oracle's recomputation (nil if the solver errored).
	Report *verify.Report
	// Verified is true iff the solver succeeded and the oracle found the
	// schedule feasible under the solver's declared capacities.
	Verified bool
	// Err is the solver error or the oracle's verdict error.
	Err error
}

// Options tunes a Run.
type Options struct {
	// Workers bounds parallelism (<= 0 selects GOMAXPROCS).
	Workers int
}

// Run executes all scenarios on the worker pool and returns verdicts in
// scenario order. It never returns early: every scenario gets a verdict,
// and failures are recorded, not thrown.
func Run(scenarios []Scenario, opt Options) []Verdict {
	verdicts := make([]Verdict, len(scenarios))
	ForEach(len(scenarios), opt.Workers, func(i int) {
		verdicts[i] = runOne(scenarios[i])
	})
	return verdicts
}

// runOne generates, solves, and verifies a single scenario.
func runOne(sc Scenario) Verdict {
	v := Verdict{Scenario: sc}
	if sc.Workload == nil || sc.Solver == nil {
		v.Err = fmt.Errorf("engine: scenario %q missing workload or solver", sc.Label)
		return v
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	inst := sc.Workload.Generate(rng)
	v.N = inst.N()
	sol, err := sc.Solver.Solve(inst)
	if err != nil {
		v.Err = fmt.Errorf("engine: %s on %s (seed %d): %w", sc.Solver.Name(), sc.Workload.Name(), sc.Seed, err)
		return v
	}
	v.Solution = sol
	rep, err := verify.CheckSchedule(inst, sol.Schedule, sol.Caps)
	v.Report = rep
	if err != nil {
		v.Err = fmt.Errorf("engine: %s on %s (seed %d) failed verification: %w",
			sc.Solver.Name(), sc.Workload.Name(), sc.Seed, err)
		return v
	}
	v.Verified = true
	return v
}

// DeriveSeed mixes a base seed with shard coordinates into a scenario seed
// using a splitmix64-style finalizer, so nearby cells get statistically
// independent streams and the mapping is stable across releases.
func DeriveSeed(base int64, coords ...int) int64 {
	z := uint64(base) ^ 0x9e3779b97f4a7c15
	for _, c := range coords {
		z += uint64(c)*0xbf58476d1ce4e5b9 + 0x9e3779b97f4a7c15
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}
