// Package experiments is the one implementation of the paper's evaluation:
// Figures 6 and 7, the validation tables of Theorems 1 and 3 and of the
// online results of Section 5.1, the ablations and the solver x workload
// sweep. Each is an Artifact of the Artifacts registry — a key and a plan
// of cells: seeded draws of a workload, the engine solvers that schedule
// them, the bounds evaluated on them, and what the results become — which
// `flowsim paper -fig KEY` and the tests iterate.
//
// A number that comes from a schedule is read from a verdict the verify
// oracle accepted, under the augmentation its solver declares; a rejected
// schedule fails the artifact. A draw without flows is not a data point
// anywhere. All seeds come from seedFor, so the rows of a table judge the
// same draws, and the output does not depend on Config.Workers.
//
// Scale: the paper uses a 150x150 switch with M in {50,100,150,300,600}.
// DefaultConfig keeps the load ratios M/m on a 6-port switch, where every
// artifact with its LP baselines takes seconds. That is a choice of
// default, not the solver's reach: at 150 ports, unit capacities, T=6
// (2-core Xeon, seed 1, one cold call per process) the LP (1)-(4) bound
// takes 11 ms at M=50 and 0.29-0.33 s at M=100 (1,732 pivots),
// SolveART(c=1) 1.3-1.5 ms and 8-9 ms, SolveMRT 0.1 ms and 7.5-8.5 ms;
// the wall is load, not ports — at M=150 the same bound is 30 s and
// 53.9 k pivots, and M >= 300 has not finished (ROADMAP items 3 and 5).
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"flowsched/internal/engine"
	"flowsched/internal/plot"
	"flowsched/internal/stats"
	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// Config selects the experiment scale.
type Config struct {
	// Ports is the switch size m (the paper uses 150).
	Ports int
	// Ratios are the load ratios M/m (the paper's {1/3,2/3,1,2,4}).
	Ratios []float64
	// HeurT are the T values swept for heuristics.
	HeurT []int
	// LPT are the T values at which the figures' LP lower bounds are
	// computed; empty, the figures draw heuristics only.
	LPT []int
	// Trials and LPTrials are the per-point repetition counts.
	Trials   int
	LPTrials int
	// Seed makes runs reproducible.
	Seed int64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultConfig is a laptop-scale configuration preserving the paper's
// load ratios.
func DefaultConfig() Config {
	return Config{
		Ports:    6,
		Ratios:   []float64{1.0 / 3, 2.0 / 3, 1, 2, 4},
		HeurT:    []int{6, 8, 10, 12, 16, 20},
		LPT:      []int{6, 8, 10},
		Trials:   5,
		LPTrials: 2,
		Seed:     1,
	}
}

// ratioName labels a load ratio like the paper ("M=2m" etc.).
func ratioName(r float64) string {
	switch {
	case r < 0.4:
		return "M=m3" // M = m/3
	case r < 0.8:
		return "M=2m3"
	case r < 1.5:
		return "M=m"
	case r < 3:
		return "M=2m"
	default:
		return "M=4m"
	}
}

// seedFor derives a deterministic seed per (base, ratio, T, trial).
func seedFor(base int64, ri, T, trial int) int64 {
	return base + int64(ri)*1_000_003 + int64(T)*7919 + int64(trial)*104729 + 17
}

// seeds is seedFor along the trial axis of grid point (ri, T); artifacts
// off the load grid use ri = 0.
func (c Config) seeds(ri, T int) func(trial int) int64 {
	return func(trial int) int64 { return seedFor(c.Seed, ri, T, trial) }
}

// poisson is the Section 5.2.1 workload at load ratio M/m, with demands up
// to dmax on ports of capacity dmax.
func (c Config) poisson(ratio float64, T, dmax int) engine.Generator {
	return engine.PoissonGen{Cfg: workload.PoissonConfig{
		M: ratio * float64(c.Ports), T: T, Ports: c.Ports, Cap: dmax, MaxDemand: dmax,
	}}
}

// Output is what an artifact produces: charts or a table.
type Output interface {
	Render(w io.Writer)
	// Save writes the CSV (and, for charts, ASCII) files into dir, which
	// it creates.
	Save(dir string) error
}

// metric reads one number off a verdict.
type metric = func(engine.Verdict) float64

// Artifact is one evaluation artifact, declared as data.
type Artifact struct {
	// Key selects the artifact (`flowsim paper -fig KEY`); Title heads
	// its output.
	Key, Title string
	// Plan lays the artifact out at cfg: the output, and the cells whose
	// Emit calls fill it in, in order.
	Plan func(cfg Config) (Output, []Cell)
}

// Bound is a lower bound on an instance's optimum: LP (1)-(4), the rho
// search of LP (19)-(21), SRPT.
type Bound func(*switchnet.Instance) (float64, error)

// Cell is one row of a table or one x of a chart: N seeded draws of a
// workload, the solvers that schedule them — all on the same N instances —
// and the bounds evaluated on them.
type Cell struct {
	Gen     engine.Generator
	N       int
	Seed    func(trial int) int64
	Solvers []engine.Solver
	Bounds  []Bound
	// Emit receives each solver's N verdicts, all verified, and each
	// bound's mean over the draws that had flows.
	Emit func(cols [][]engine.Verdict, lb []float64)
}

// Run executes every cell's schedules in one engine run and every bound in
// one fan-out on the engine's pool, both on cfg.Workers workers, fails on a
// solver or bound that erred and on a schedule the oracle rejected, and
// emits.
func (a Artifact) Run(cfg Config) (Output, error) {
	out, cells := a.Plan(cfg)
	var scenarios, draws []engine.Scenario
	var bounds []Bound // per draw
	for _, c := range cells {
		for _, s := range c.Solvers {
			scenarios = append(scenarios, c.trials(s)...)
		}
		for _, b := range c.Bounds {
			draws = append(draws, c.trials(nil)...)
			bounds = append(bounds, slices.Repeat([]Bound{b}, c.N)...)
		}
	}
	verdicts := engine.Run(scenarios, engine.Options{Workers: cfg.Workers})
	for i, v := range verdicts {
		if !v.Verified {
			return nil, fmt.Errorf("%s: scenario %d: %w", a.Key, i, v.Err)
		}
	}
	vals := make([]float64, len(draws))
	errs := make([]error, len(draws))
	engine.ForEach(len(draws), cfg.Workers, func(i int) {
		inst := draws[i].Workload.Generate(rand.New(rand.NewSource(draws[i].Seed)))
		if inst.N() > 0 {
			vals[i], errs[i] = bounds[i](inst)
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: bound on %s (seed %d): %w", a.Key, draws[i].Workload.Name(), draws[i].Seed, err)
		}
	}
	for _, c := range cells {
		cols := make([][]engine.Verdict, len(c.Solvers))
		for s := range cols {
			cols[s], verdicts = verdicts[:c.N], verdicts[c.N:]
		}
		lb := make([]float64, len(c.Bounds))
		for b := range lb {
			// An empty draw was left at 0, which no instance with a flow
			// reads; the block is consumed here, so it is filtered in place.
			lb[b] = stats.Mean(slices.DeleteFunc(vals[:c.N], func(x float64) bool { return x == 0 }))
			vals = vals[c.N:]
		}
		c.Emit(cols, lb)
	}
	return out, nil
}

// trials lists the cell's draws as scenarios for one solver (nil: the
// draws alone).
func (c Cell) trials(s engine.Solver) []engine.Scenario {
	out := make([]engine.Scenario, c.N)
	for tr := range out {
		out[tr] = engine.Scenario{Seed: c.Seed(tr), Workload: c.Gen, Solver: s}
	}
	return out
}

// Select resolves a -fig value: one artifact by key, or all of them for
// "all". An unknown key is an error naming the valid ones.
func Select(key string) ([]Artifact, error) {
	if key == "all" {
		return Artifacts, nil
	}
	var keys []string
	for _, a := range Artifacts {
		if a.Key == key {
			return []Artifact{a}, nil
		}
		keys = append(keys, a.Key)
	}
	return nil, fmt.Errorf("unknown artifact %q (valid: %s, all)", key, strings.Join(keys, ", "))
}

// vals is f over the draws of a column that had flows; avg and peak are
// its mean and maximum.
func vals(col []engine.Verdict, f metric) []float64 {
	var xs []float64
	for _, v := range col {
		if v.N > 0 {
			xs = append(xs, f(v))
		}
	}
	return xs
}

func avg(col []engine.Verdict, f metric) float64  { return stats.Mean(vals(col, f)) }
func peak(col []engine.Verdict, f metric) float64 { return stats.Max(vals(col, f)) }

// Charts is the output of a figure: one panel per load ratio.
type Charts []*plot.Chart

// Render implements Output.
func (cs Charts) Render(w io.Writer) {
	for _, c := range cs {
		fmt.Fprintln(w, c.RenderASCII(56, 12))
	}
}

// Save implements Output: a CSV and an ASCII rendering per panel.
func (cs Charts) Save(dir string) error {
	for _, c := range cs {
		if err := save(dir, sanitize(c.Title)+".csv", c.WriteCSV); err != nil {
			return err
		}
		err := save(dir, sanitize(c.Title)+".txt", func(w io.Writer) error {
			_, err := io.WriteString(w, c.RenderASCII(64, 14))
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Sweep is the output of the engine sweep: its verified result table.
type Sweep struct{ *engine.ResultTable }

// Save implements Output.
func (s Sweep) Save(dir string) error { return save(dir, "engine_sweep.csv", s.WriteCSV) }

// Table is a labelled grid, the output of the validation artifacts.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// row appends a row; format's cells are separated by spaces.
func (t *Table) row(format string, args ...any) {
	t.Rows = append(t.Rows, strings.Fields(fmt.Sprintf(format, args...)))
}

// Render implements Output: the title, then aligned columns.
func (t *Table) Render(w io.Writer) {
	rows := append([][]string{t.Columns}, t.Rows...)
	widths := make([]int, len(t.Columns))
	for _, row := range rows {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	fmt.Fprintln(w, t.Title)
	for _, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(w, "  %-*s", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
}

// Save implements Output: one CSV named from the title.
func (t *Table) Save(dir string) error {
	return save(dir, sanitize(t.Title)+".csv", func(w io.Writer) error {
		_, err := fmt.Fprintln(w, strings.Join(t.Columns, ","))
		for _, row := range t.Rows {
			if err == nil {
				_, err = fmt.Fprintln(w, strings.Join(row, ","))
			}
		}
		return err
	})
}

// save creates dir/name, and dir if need be, and fills it with write.
func save(dir, name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '=', r == '.':
			out = append(out, r)
		case r == ' ', r == '(', r == ')', r == ',', r == '/':
			out = append(out, '_')
		}
	}
	return string(out)
}
