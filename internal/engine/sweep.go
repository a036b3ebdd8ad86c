package engine

// SweepConfig describes a full solver x workload sweep.
type SweepConfig struct {
	// Solvers and Generators are crossed; every pair runs Trials times.
	Solvers    []Solver
	Generators []Generator
	// Trials is the number of seeded repetitions per (solver, generator)
	// pair (0 means 1).
	Trials int
	// Seed is the base seed; per-scenario seeds are derived from it and
	// the cell coordinates, so the whole table is reproducible.
	Seed int64
	// Workers bounds the pool's parallelism (see Options).
	Workers int
}

// Scenarios expands the sweep into its scenario list: generators outermost,
// then trials, then solvers — so all solvers of one trial share a derived
// seed and therefore judge the exact same instance draw.
func (c SweepConfig) Scenarios() []Scenario {
	trials := c.Trials
	if trials <= 0 {
		trials = 1
	}
	var out []Scenario
	for gi, gen := range c.Generators {
		for tr := 0; tr < trials; tr++ {
			seed := DeriveSeed(c.Seed, gi, tr)
			for _, sol := range c.Solvers {
				out = append(out, Scenario{
					Seed:     seed,
					Workload: gen,
					Solver:   sol,
				})
			}
		}
	}
	return out
}

// RunSweep executes the sweep and returns its result table. Scenario
// failures are recorded in the table, not returned as an error; callers
// that require a fully verified sweep check table.AllVerified or
// table.FirstError.
func RunSweep(cfg SweepConfig) *ResultTable {
	verdicts := Run(cfg.Scenarios(), Options{Workers: cfg.Workers})
	return NewResultTable(verdicts)
}

// DefaultSweep is a laptop-scale sweep crossing the full default solver
// registry with the three default workload patterns.
func DefaultSweep(ports, T, trials int, seed int64, workers int) SweepConfig {
	return SweepConfig{
		Solvers:    Solvers(),
		Generators: Generators(ports, T),
		Trials:     trials,
		Seed:       seed,
		Workers:    workers,
	}
}
