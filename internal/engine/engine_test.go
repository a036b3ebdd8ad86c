package engine

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		for _, n := range []int{0, 1, 7, 100} {
			var hits = make([]int32, n)
			ForEach(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestDeriveSeedStableAndSpread(t *testing.T) {
	a := DeriveSeed(1, 0, 0)
	if a != DeriveSeed(1, 0, 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	seen := map[int64]bool{}
	for i := 0; i < 50; i++ {
		for j := 0; j < 4; j++ {
			s := DeriveSeed(1, i, j)
			if seen[s] {
				t.Fatalf("seed collision at (%d,%d)", i, j)
			}
			seen[s] = true
		}
	}
}

// sweep crosses solvers with generators over seeded trials: generators
// outermost, then trials, then solvers, so all solvers of one trial share a
// derived seed and judge the same instance draw.
func sweep(solvers []Solver, gens []Generator, trials int, seed int64) []Scenario {
	var out []Scenario
	for gi, gen := range gens {
		for tr := 0; tr < trials; tr++ {
			for _, sol := range solvers {
				out = append(out, Scenario{Seed: DeriveSeed(seed, gi, tr), Workload: gen, Solver: sol})
			}
		}
	}
	return out
}

// renderSweep runs the default registries at tiny scale and returns the
// rendered table.
func renderSweep(t *testing.T, workers int) string {
	t.Helper()
	table := NewResultTable(Run(sweep(Solvers(), Generators(4, 4), 2, 11), Options{Workers: workers}))
	if err := table.FirstError(); err != nil {
		t.Fatal(err)
	}
	if !table.AllVerified() {
		t.Fatal("not all scenarios verified")
	}
	var buf bytes.Buffer
	table.Render(&buf)
	return buf.String()
}

// TestSweepDeterministicAcrossWorkerCounts is the acceptance criterion: the
// default registries cross >=4 solvers with >=3 generators on a worker pool
// with deterministic per-scenario seeds, every scenario passes the verify
// oracle, and the same seed yields an identical result table regardless of
// parallelism.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	if n := len(Solvers()); n < 4 {
		t.Fatalf("default registry has %d solvers, want >= 4", n)
	}
	if n := len(Generators(4, 4)); n < 3 {
		t.Fatalf("default registry has %d generators, want >= 3", n)
	}
	serial := renderSweep(t, 1)
	parallel := renderSweep(t, 8)
	if serial != parallel {
		t.Fatalf("sweep not deterministic across worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "true") || strings.Contains(serial, "false") {
		t.Fatalf("expected every row verified:\n%s", serial)
	}
}

// TestSweepSharesDrawsAcrossSolvers: all solvers inside one trial get the
// same seed, hence judge the same instance draw.
func TestSweepSharesDrawsAcrossSolvers(t *testing.T) {
	solvers, gens := Solvers(), Generators(3, 3)
	scenarios := sweep(solvers, gens, 1, 5)
	if len(scenarios) != len(solvers)*len(gens) {
		t.Fatalf("got %d scenarios, want %d", len(scenarios), len(solvers)*len(gens))
	}
	perTrial := map[string]Verdict{}
	for _, v := range Run(scenarios, Options{Workers: 1}) {
		key := v.Scenario.Workload.Name()
		if prev, ok := perTrial[key]; ok && (prev.Scenario.Seed != v.Scenario.Seed || prev.N != v.N) {
			t.Fatalf("solvers of one trial judged different draws: seed %d (n=%d) vs %d (n=%d)",
				prev.Scenario.Seed, prev.N, v.Scenario.Seed, v.N)
		}
		perTrial[key] = v
	}
}

func TestRunRecordsSolverFailuresWithoutAborting(t *testing.T) {
	// ART requires unit demands; a general-demand instance must fail its
	// scenario while the neighboring one still succeeds.
	inst := &switchnet.Instance{
		Switch: switchnet.NewSwitch(2, 2, 3),
		Flows:  []switchnet.Flow{{In: 0, Out: 0, Demand: 2, Release: 0}},
	}
	scenarios := []Scenario{
		{Seed: 1, Workload: FixedGen{Label: "general", Inst: inst}, Solver: ARTSolver{C: 1}},
		{Seed: 1, Workload: FixedGen{Label: "general", Inst: inst}, Solver: MRTSolver{}},
	}
	verdicts := Run(scenarios, Options{Workers: 2})
	if verdicts[0].Err == nil || verdicts[0].Verified {
		t.Fatal("ART on general demands should fail")
	}
	if verdicts[1].Err != nil || !verdicts[1].Verified {
		t.Fatalf("MRT should succeed, got %v", verdicts[1].Err)
	}
	table := NewResultTable(verdicts)
	if table.AllVerified() {
		t.Fatal("table should not be all-verified")
	}
	if table.FirstError() == nil {
		t.Fatal("FirstError should surface the ART failure")
	}
}

// TestCoflowSolverRemapsToOriginalIndices: the coflow adapter must return a
// schedule indexed by the original instance's flow order even though the
// flattening reorders flows by release.
func TestCoflowSolverRemapsToOriginalIndices(t *testing.T) {
	// Deliberately interleave releases so flattening reorders.
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(3),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 2},
			{In: 1, Out: 1, Demand: 1, Release: 0},
			{In: 0, Out: 1, Demand: 1, Release: 2},
			{In: 2, Out: 2, Demand: 1, Release: 0},
		},
	}
	for _, pol := range []string{"SEBF", "SCF", "FIFO"} {
		sol, err := (CoflowSolver{Policy: pol}).Solve(inst)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		for f, e := range inst.Flows {
			if sol.Schedule.Round[f] < e.Release {
				t.Fatalf("%s: flow %d at round %d before release %d (bad remap)",
					pol, f, sol.Schedule.Round[f], e.Release)
			}
		}
		if sol.Stats["coflows"] != 2 {
			t.Fatalf("%s: grouped %v coflows, want 2", pol, sol.Stats["coflows"])
		}
	}
}

func TestFixedGenClones(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows:  []switchnet.Flow{{In: 0, Out: 0, Demand: 1, Release: 0}},
	}
	g := FixedGen{Inst: inst}
	a := g.Generate(rand.New(rand.NewSource(1)))
	a.Flows[0].Release = 99
	if inst.Flows[0].Release != 0 {
		t.Fatal("FixedGen leaked its backing instance")
	}
}

// solversNamed picks solvers by Name from the default registry plus the
// variants it leaves out — the StreamFIFO and OldestFirst policies and the
// SCF and FIFO coflow orders — failing t on a name neither holds.
func solversNamed(t testing.TB, names ...string) []Solver {
	t.Helper()
	all := append(Solvers(),
		PolicySolver{Policy: "StreamFIFO"},
		PolicySolver{Policy: "OldestFirst"},
		CoflowSolver{Policy: "SCF"},
		CoflowSolver{Policy: "FIFO"},
	)
	out := make([]Solver, len(names))
	for i, name := range names {
		j := slices.IndexFunc(all, func(s Solver) bool { return s.Name() == name })
		if j < 0 {
			t.Fatalf("no solver named %q", name)
		}
		out[i] = all[j]
	}
	return out
}

func TestResultTableCSV(t *testing.T) {
	gens := []Generator{PoissonGen{Cfg: workload.PoissonConfig{M: 2, T: 3, Ports: 3}}}
	table := NewResultTable(Run(sweep(solversNamed(t, "MaxCard"), gens, 2, 3), Options{}))
	var buf bytes.Buffer
	if err := table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "workload,solver,seed,n,verified,augment,total_resp,") {
		t.Fatalf("bad header %q", lines[0])
	}
	if !strings.Contains(lines[1], ",true,-,") {
		t.Fatalf("a simulator policy runs on the raw capacities, row %q", lines[1])
	}
}

// TestLPSolversReportStageCounts: the LP-backed solvers carry the solver's
// stage counts into their table rows, the others a blank; every row names
// the augmentation its solver declared. An MRT row may count no LP at all —
// first fit answered its search — and then its whole block is zero.
func TestLPSolversReportStageCounts(t *testing.T) {
	gens := []Generator{PoissonGen{Cfg: workload.PoissonConfig{M: 3, T: 3, Ports: 3}}}
	table := NewResultTable(Run(sweep(solversNamed(t, "ART(c=1)", "MRT", "MaxCard"), gens, 1, 5), Options{}))
	if err := table.FirstError(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"x2", "+1", "-"} {
		if got := table.Rows[i].Augment; got != want {
			t.Fatalf("%s: augment column %q, want %q", table.Rows[i].Solver, got, want)
		}
	}
	if st := table.Verdicts[0].Solution.Stats; st["rounding_iterations"] < 1 || st["batches"] < 1 ||
		st["pseudo_total"] < st["lp_bound"]-1e-9 {
		t.Fatalf("ART stage counts missing or inconsistent: %v", st)
	}
	if rep := table.Verdicts[1].Report; rep.MaxExcess > 0 || rep.MaxExcess == math.MinInt {
		t.Fatalf("MRT excess %d over its declared capacities: want loaded ports within them", rep.MaxExcess)
	}
	for i, r := range table.Rows[:2] {
		st := table.Verdicts[i].Solution.Stats
		if len(r.LP) != len(lpStatKeys) {
			t.Fatalf("%s: LP columns %v", r.Solver, r.LP)
		}
		if r.Solver == "MRT" && st["lp_pivots"] == 0 && !slices.ContainsFunc(r.LP, func(v int) bool { return v != 0 }) {
			continue
		}
		// A built LP is factored. ART's start places every flow here; MRT
		// builds its LP at rho only where first fit leaves a flow out.
		if r.LP[0] != int(st["lp_rows"]) || st["lp_rows"] == 0 || st["lp_refactors"] == 0 ||
			st["lp_lu_peak_nnz"] < st["lp_rows"] || st["lp_start_basic"] == 0 || st["lp_start_basic"] > st["lp_start_at_upper"] ||
			(st["lp_start_at_upper"] == float64(r.N)) != (r.Solver != "MRT") {
			t.Fatalf("%s: LP columns %v, stats %v", r.Solver, r.LP, st)
		}
		if got := st["lp_phase1_pivots"] + st["lp_phase2_pivots"]; got != st["lp_pivots"] {
			t.Fatalf("%s: phase pivots sum to %v, lp_pivots is %v", r.Solver, got, st["lp_pivots"])
		}
	}
	if r := table.Rows[2]; r.LP != nil || !strings.Contains(strings.Join(r.cells(), ","), ",-,") {
		t.Fatalf("%s: LP columns %v, cells %v", r.Solver, r.LP, r.cells())
	}
}

// TestEmptyInstanceScenarios: zero-flow draws must verify trivially for
// every registered solver.
func TestEmptyInstanceScenarios(t *testing.T) {
	empty := &switchnet.Instance{Switch: switchnet.UnitSwitch(2)}
	var scenarios []Scenario
	for _, s := range Solvers() {
		scenarios = append(scenarios, Scenario{Seed: 1, Workload: FixedGen{Label: "empty", Inst: empty}, Solver: s})
	}
	for _, v := range Run(scenarios, Options{Workers: 2}) {
		if v.Err != nil || !v.Verified {
			t.Fatalf("%s on empty instance: %v", v.Scenario.Solver.Name(), v.Err)
		}
	}
}
