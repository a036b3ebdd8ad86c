package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowsched/internal/engine"
	"flowsched/internal/switchnet"
)

// tinyConfig keeps experiment tests fast.
func tinyConfig() Config {
	return Config{
		Ports:    4,
		Ratios:   []float64{1, 4},
		HeurT:    []int{4, 6},
		LPT:      []int{4},
		Trials:   2,
		LPTrials: 1,
		Seed:     3,
	}
}

// runTable runs the table artifact key at cfg.
func runTable(t *testing.T, key string, cfg Config) *Table {
	t.Helper()
	arts, err := Select(key)
	if err != nil {
		t.Fatal(err)
	}
	out, err := arts[0].Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out.(*Table)
}

// cell parses a numeric table cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// TestRegistry runs every artifact of the registry at tinyConfig: it must
// succeed (Run fails on any verdict the oracle did not accept), render the
// same bytes whatever the worker count, and save at least one CSV with a
// header and a row.
func TestRegistry(t *testing.T) {
	for _, a := range Artifacts {
		t.Run(a.Key, func(t *testing.T) {
			cfg, dir := tinyConfig(), t.TempDir()
			var rendered [2]bytes.Buffer
			for i, workers := range []int{1, 4} {
				cfg.Workers = workers
				out, err := a.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				out.Render(&rendered[i])
				if err := out.Save(dir); err != nil {
					t.Fatal(err)
				}
			}
			if rendered[0].Len() == 0 || !bytes.Equal(rendered[0].Bytes(), rendered[1].Bytes()) {
				t.Fatalf("output differs between 1 and 4 workers (or is empty):\n%s\n---\n%s", &rendered[0], &rendered[1])
			}
			files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
			if err != nil || len(files) == 0 {
				t.Fatalf("csv files = %v (%v)", files, err)
			}
			for _, f := range files {
				if data, err := os.ReadFile(f); err != nil || bytes.Count(data, []byte("\n")) < 2 {
					t.Fatalf("%s: no header and row (%v)", f, err)
				}
			}
		})
	}
}

// TestSweepIsTheEnginesDefaultSweep: the sweep artifact's cells expand to
// the engine's default registries crossed over seeded trials — generators
// outermost, then trials, then solvers — seeds and row order included.
func TestSweepIsTheEnginesDefaultSweep(t *testing.T) {
	cfg := tinyConfig()
	arts, err := Select("sweep")
	if err != nil {
		t.Fatal(err)
	}
	out, err := arts[0].Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	out.Render(&got)
	var scenarios []engine.Scenario
	for gi, gen := range engine.Generators(cfg.Ports, cfg.HeurT[0]) {
		for tr := 0; tr < cfg.Trials; tr++ {
			for _, sol := range engine.Solvers() {
				scenarios = append(scenarios, engine.Scenario{Seed: engine.DeriveSeed(cfg.Seed, gi, tr), Workload: gen, Solver: sol})
			}
		}
	}
	engine.NewResultTable(engine.Run(scenarios, engine.Options{})).Render(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("sweep artifact:\n%s\nreference sweep:\n%s", &got, &want)
	}
}

// TestSelect: a key resolves to its artifact, "all" to the registry, and
// anything else to an error that names the key and the valid ones.
func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(Artifacts) {
		t.Fatalf("Select(all) = %d artifacts, %v", len(all), err)
	}
	seen := map[string]bool{}
	for _, a := range Artifacts {
		one, err := Select(a.Key)
		if err != nil || len(one) != 1 || one[0].Title != a.Title || seen[a.Key] {
			t.Fatalf("Select(%q) = %v, %v (duplicate key: %v)", a.Key, one, err, seen[a.Key])
		}
		seen[a.Key] = true
	}
	_, err = Select("nosuch")
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) || !strings.Contains(err.Error(), "6, 7, t1, t3, amrt, 4a, ablation, bounds, sweep, all") {
		t.Fatalf("Select(nosuch) error %v does not name the key and the valid ones", err)
	}
}

// pileUp schedules every flow in round 0 and claims the raw capacities.
type pileUp struct{}

func (pileUp) Name() string { return "pileUp" }

func (pileUp) Solve(inst *switchnet.Instance) (*engine.Solution, error) {
	return &engine.Solution{Schedule: switchnet.NewSchedule(inst.N()), Caps: inst.Switch.Caps()}, nil
}

// TestRunFailsOnRejectedSchedule: no number reaches a table from a schedule
// the oracle rejected.
func TestRunFailsOnRejectedSchedule(t *testing.T) {
	emitted := false
	a := Artifact{Key: "cheat", Plan: func(cfg Config) (Output, []Cell) {
		return &Table{}, []Cell{{Gen: cfg.poisson(4, 4, 1), N: 2, Seed: cfg.seeds(0, 4), Solvers: []engine.Solver{pileUp{}},
			Emit: func([][]engine.Verdict, []float64) { emitted = true }}}
	}}
	if _, err := a.Run(tinyConfig()); err == nil || emitted {
		t.Fatalf("Run accepted an infeasible schedule (err %v, emitted %v)", err, emitted)
	}
}

func TestFig7LowerBoundIsBelowHeuristics(t *testing.T) {
	arts, err := Select("7")
	if err != nil {
		t.Fatal(err)
	}
	out, err := arts[0].Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out.(Charts) {
		var lp map[float64]float64
		for _, s := range c.Series {
			if s.Name == "LP" {
				lp = map[float64]float64{}
				for _, p := range s.Points {
					lp[p[0]] = p[1]
				}
			}
		}
		if lp == nil {
			t.Fatalf("panel %q has no LP series", c.Title)
		}
		for _, s := range c.Series {
			if s.Name == "LP" {
				continue
			}
			for _, p := range s.Points {
				if bound, ok := lp[p[0]]; ok && p[1] < bound-1e-9 {
					t.Fatalf("panel %q: %s at T=%v is %v < LP bound %v",
						c.Title, s.Name, p[0], p[1], bound)
				}
			}
		}
	}
}

// TestTheorem1TableShape: the three augmentations are judged on the same
// draws, so the rows agree on n and on the pseudo-schedule (which does not
// depend on c), and more capacity never needs a longer conversion window.
func TestTheorem1TableShape(t *testing.T) {
	tab := runTable(t, "t1", tinyConfig())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i, row := range tab.Rows[1:] {
		prev := tab.Rows[i]
		if row[5] != prev[5] || row[4] != prev[4] || cell(t, row[5]) == 0 {
			t.Fatalf("rows %v and %v were not computed on the same draws", prev, row)
		}
		if cell(t, row[3]) > cell(t, prev[3]) {
			t.Fatalf("window_h grows with c: %v then %v", prev, row)
		}
	}
}

func TestTheorem3TableWithinBudget(t *testing.T) {
	sawOverload := false
	for _, row := range runTable(t, "t3", tinyConfig()).Rows {
		// rho_sched equals rho_LP, and overload_max (against the raw
		// capacities) is within the budget 2*d_max-1.
		if row[1] != row[2] {
			t.Fatalf("schedule's rho %s is not the LP's %s", row[2], row[1])
		}
		over, budget := cell(t, row[3]), cell(t, row[4])
		if over > budget {
			t.Fatalf("overload %v exceeds budget %v", over, budget)
		}
		sawOverload = sawOverload || over > 0
	}
	if !sawOverload {
		t.Fatal("no row used any of its augmentation: the overload is not read against the raw capacities")
	}
}

// TestAMRTTableGuarantee is Lemma 5.3 on the table's own numbers: the
// online schedule's maximum response is at most twice its final guess, and
// never below the offline optimum.
func TestAMRTTableGuarantee(t *testing.T) {
	cfg := tinyConfig()
	tab := runTable(t, "amrt", cfg)
	if len(tab.Rows) != len(cfg.Ratios) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		maxRT, twice, offline := cell(t, row[2]), cell(t, row[3]), cell(t, row[4])
		if maxRT > twice || maxRT < offline || offline <= 0 {
			t.Fatalf("row %v: want offline_rho <= maxRT <= 2*final_rho", row)
		}
	}
}

// TestFig4aTableDiverges is Lemma 5.1 on the table's own numbers: on the
// gadget every heuristic's ratio to the offline cost grows with its length.
func TestFig4aTableDiverges(t *testing.T) {
	tab := runTable(t, "4a", tinyConfig())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i, row := range tab.Rows[1:] {
		for col := 3; col < len(row); col++ {
			if cell(t, row[col]) <= cell(t, tab.Rows[i][col]) {
				t.Fatalf("%s does not grow: %v then %v", tab.Columns[col], tab.Rows[i], row)
			}
		}
	}
}

func TestTableWriteCSVAndRender(t *testing.T) {
	dir := t.TempDir()
	tab := &Table{Title: "demo table", Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	if err := tab.Save(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "demo_table.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a,b\n1,2\n" {
		t.Fatalf("csv = %q", data)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "demo table") {
		t.Fatal("render broken")
	}
}

func TestRatioName(t *testing.T) {
	cases := map[float64]string{
		1.0 / 3: "M=m3", 2.0 / 3: "M=2m3", 1: "M=m", 2: "M=2m", 4: "M=4m",
	}
	for r, want := range cases {
		if got := ratioName(r); got != want {
			t.Errorf("ratioName(%v) = %q, want %q", r, got, want)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("fig6 M=m (m=6, M=2)"); strings.ContainsAny(got, " ()") {
		t.Fatalf("sanitize left specials: %q", got)
	}
}
