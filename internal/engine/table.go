package engine

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Row is one verdict flattened for reporting.
type Row struct {
	Label    string
	Workload string
	Solver   string
	Seed     int64
	N        int
	Verified bool
	// Augment is the capacity the solver declared its schedule feasible
	// under, from its cap_increase and cap_factor stats: "+k" for c_p + k,
	// "xk" for k*c_p, "+jxk" for k*(c_p + j), "-" for the raw capacities.
	// The response columns are bought with it.
	Augment string
	// Recomputed metrics from the verify oracle (zero when the solver
	// errored before producing a schedule).
	TotalResponse int
	AvgResponse   float64
	MaxResponse   int
	Makespan      int
	// LP holds the solver-stage counts of an LP-backed solver in
	// lpStatKeys order (rows, columns, nonzeros, phase-1 and phase-2
	// pivots, bound flips, refactorisations, peak L+U nonzeros, stalls
	// answered with a perturbation, variables the crash start put at
	// their upper bound, and those among them it put in the starting
	// basis); nil for a solver that solves no LP.
	LP []int
	// Err is the failure description, "" on success.
	Err string
}

// ResultTable collects a sweep's verdicts in scenario order.
type ResultTable struct {
	Rows []Row
	// Verdicts are the underlying engine verdicts, index-aligned with
	// Rows, for callers that need solver stats or retained instances.
	Verdicts []Verdict
}

// NewResultTable flattens verdicts into a table.
func NewResultTable(verdicts []Verdict) *ResultTable {
	t := &ResultTable{Rows: make([]Row, len(verdicts)), Verdicts: verdicts}
	for i, v := range verdicts {
		r := Row{
			Label:    v.Scenario.Label,
			Seed:     v.Scenario.Seed,
			N:        v.N,
			Verified: v.Verified,
			Augment:  "-",
		}
		if v.Scenario.Workload != nil {
			r.Workload = v.Scenario.Workload.Name()
		}
		if v.Scenario.Solver != nil {
			r.Solver = v.Scenario.Solver.Name()
		}
		if r.Label == "" {
			r.Label = r.Workload + "/" + r.Solver
		}
		if v.Report != nil {
			r.TotalResponse = v.Report.TotalResponse
			r.AvgResponse = v.Report.AvgResponse
			r.MaxResponse = v.Report.MaxResponse
			r.Makespan = v.Report.Makespan
		}
		if v.Solution != nil {
			r.Augment = augment(v.Solution.Stats)
			if _, ok := v.Solution.Stats[lpStatKeys[0]]; ok {
				for _, k := range lpStatKeys {
					r.LP = append(r.LP, int(v.Solution.Stats[k]))
				}
			}
		}
		if v.Err != nil {
			r.Err = v.Err.Error()
		}
		t.Rows[i] = r
	}
	return t
}

// augment formats a solver's declared capacity augmentation.
func augment(stats map[string]float64) string {
	s := ""
	if k, ok := stats["cap_increase"]; ok {
		s = fmt.Sprintf("+%.0f", k)
	}
	if k, ok := stats["cap_factor"]; ok {
		s += fmt.Sprintf("x%.0f", k)
	}
	if s == "" {
		return "-"
	}
	return s
}

// AllVerified reports whether every scenario passed the oracle.
func (t *ResultTable) AllVerified() bool {
	for _, r := range t.Rows {
		if !r.Verified {
			return false
		}
	}
	return true
}

// FirstError returns the first scenario failure, if any.
func (t *ResultTable) FirstError() error {
	for i, v := range t.Verdicts {
		if v.Err != nil {
			return fmt.Errorf("engine: scenario %d (%s): %w", i, t.Rows[i].Label, v.Err)
		}
	}
	return nil
}

// header is the column set shared by Render and WriteCSV: the verdict, the
// LP stage counts (lpStatKeys, "-" for a solver without an LP), the error.
var header = append(append([]string{"workload", "solver", "seed", "n", "verified", "augment", "total_resp", "avg_resp", "max_resp", "makespan"},
	lpStatKeys...), "err")

// cells formats one row in header order.
func (r Row) cells() []string {
	cells := []string{
		r.Workload,
		r.Solver,
		strconv.FormatInt(r.Seed, 10),
		strconv.Itoa(r.N),
		strconv.FormatBool(r.Verified),
		r.Augment,
		strconv.Itoa(r.TotalResponse),
		strconv.FormatFloat(r.AvgResponse, 'f', 3, 64),
		strconv.Itoa(r.MaxResponse),
		strconv.Itoa(r.Makespan),
	}
	for i := range lpStatKeys {
		if r.LP == nil {
			cells = append(cells, "-")
		} else {
			cells = append(cells, strconv.Itoa(r.LP[i]))
		}
	}
	return append(cells, r.Err)
}

// Render prints the table with aligned columns.
func (t *ResultTable) Render(w io.Writer) {
	rows := make([][]string, 0, len(t.Rows)+1)
	rows = append(rows, header)
	for _, r := range t.Rows {
		rows = append(rows, r.cells())
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range rows {
		parts := make([]string, len(row))
		for i, c := range row {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
}

// WriteCSV emits the table as CSV with a header row.
func (t *ResultTable) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r.cells()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
