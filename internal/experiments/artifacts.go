package experiments

import (
	"fmt"
	"strings"

	"flowsched/internal/core"
	"flowsched/internal/engine"
	"flowsched/internal/plot"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// Artifacts is the registry, in the order `-fig all` runs it.
var Artifacts = []Artifact{
	figure("6", "Figure 6: average response time", "fig6", "avg response time",
		func(v engine.Verdict) float64 { return v.Report.AvgResponse },
		func(inst *switchnet.Instance) (float64, error) {
			total, err := artLowerBound(inst)
			return total / float64(inst.N()), err
		}),
	figure("7", "Figure 7: maximum response time", "fig7", "max response time", maxResponse, mrtLowerBound),
	{"t1", "Theorem 1 validation", theorem1},
	{"t3", "Theorem 3 validation", theorem3},
	{"amrt", "Lemma 5.3 online AMRT", amrt},
	{"4a", "Lemma 5.1 gadget divergence", fig4a},
	{"ablation", "Matching-engine ablation", ablation},
	{"bounds", "LP vs SRPT bound comparison", bounds},
	{"sweep", "Engine sweep: every solver x workload, oracle-verified", sweep},
}

// policies adapts names of the stream policy table to engine solvers.
func policies(names []string) []engine.Solver {
	out := make([]engine.Solver, len(names))
	for i, name := range names {
		out[i] = engine.PolicySolver{Policy: name}
	}
	return out
}

// artLowerBound is the optimum of LP (1)-(4), a bound on total response.
func artLowerBound(inst *switchnet.Instance) (float64, error) {
	lb, err := core.ARTLowerBound(inst)
	if err != nil {
		return 0, err
	}
	return lb.TotalResponse, nil
}

// mrtLowerBound is the binary search over LP (19)-(21).
func mrtLowerBound(inst *switchnet.Instance) (float64, error) {
	rho, err := core.MRTLowerBound(inst)
	return float64(rho), err
}

func maxResponse(v engine.Verdict) float64 { return float64(v.Report.MaxResponse) }
func flows(v engine.Verdict) float64       { return float64(v.N) }

// rawOverload is an MRT verdict's worst port overload against the raw
// capacities, read off the engine's own check at c_p + cap_increase:
// every port got the same increase, so the largest excess over c_p is the
// largest over the checked capacities plus that increase.
func rawOverload(v engine.Verdict) float64 {
	return float64(max(v.Report.MaxExcess+int(v.Solution.Stats["cap_increase"]), 0))
}

// stat reads one of the solver's own diagnostics.
func stat(key string) metric {
	return func(v engine.Verdict) float64 { return v.Solution.Stats[key] }
}

// ratioOrZero is a/b, 0 when b is not positive.
func ratioOrZero(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// figure declares Figure 6 or 7: a panel per load ratio, the three
// heuristics over cfg.HeurT averaged over cfg.Trials draws, and the LP
// series over cfg.LPT on the first cfg.LPTrials of the same draws.
func figure(key, title, name, ylabel string, y metric, bound Bound) Artifact {
	return Artifact{key, title, func(cfg Config) (Output, []Cell) {
		var charts Charts
		var cells []Cell
		pols := stream.PaperNames()
		for ri, ratio := range cfg.Ratios {
			chart := &plot.Chart{XLabel: "T", YLabel: ylabel,
				Title: fmt.Sprintf("%s %s (m=%d, M=%.3g)", name, ratioName(ratio), cfg.Ports, ratio*float64(cfg.Ports))}
			charts = append(charts, chart)
			for _, T := range cfg.HeurT {
				cells = append(cells, Cell{cfg.poisson(ratio, T, 1), cfg.Trials, cfg.seeds(ri, T), policies(pols), nil,
					func(cols [][]engine.Verdict, _ []float64) {
						for s, pol := range pols {
							chart.AddPoint(pol, float64(T), avg(cols[s], y))
						}
					}})
			}
			for _, T := range cfg.LPT {
				cells = append(cells, Cell{cfg.poisson(ratio, T, 1), cfg.LPTrials, cfg.seeds(ri, T), nil, []Bound{bound},
					func(_ [][]engine.Verdict, lb []float64) { chart.AddPoint("LP", float64(T), lb[0]) }})
			}
		}
		return charts, cells
	}}
}

// theorem1 validates the FS-ART pipeline: for each augmentation c, on the
// same draws, the realized total-response ratio against the LP bound
// (Theorem 1 promises 1 + O(log n)/c), the largest conversion window h and
// the pseudo-schedule's ratio.
func theorem1(cfg Config) (Output, []Cell) {
	tab := &Table{Title: "theorem1 FS-ART approximation (unit demands)",
		Columns: strings.Fields("c capacity ratio_vs_LP window_h pseudo_ratio n")}
	overLP := func(num metric) metric {
		return func(v engine.Verdict) float64 { return num(v) / v.Solution.Stats["lp_bound"] }
	}
	var cells []Cell
	for _, c := range []int{1, 2, 4} {
		cells = append(cells, Cell{cfg.poisson(1, 6, 1), cfg.Trials, cfg.seeds(0, 6), []engine.Solver{engine.ARTSolver{C: c}}, nil,
			func(cols [][]engine.Verdict, _ []float64) {
				total := func(v engine.Verdict) float64 { return float64(v.Report.TotalResponse) }
				tab.row("%d (1+%d)x %.3f %.0f %.3f %.1f", c, c, avg(cols[0], overLP(total)),
					peak(cols[0], stat("window_h")), avg(cols[0], overLP(stat("pseudo_total"))), avg(cols[0], flows))
			}})
	}
	return tab, cells
}

// theorem3 validates the FS-MRT pipeline at d_max 1, 2, 3 (on ports of that
// capacity): the achieved rho equals the LP optimum, and the worst port
// overload against the raw capacities stays within the 2*d_max-1 granted.
func theorem3(cfg Config) (Output, []Cell) {
	tab := &Table{Title: "theorem3 FS-MRT optimal with +2dmax-1 capacity",
		Columns: strings.Fields("dmax rho_LP rho_sched overload_max budget n")}
	var cells []Cell
	for _, dmax := range []int{1, 2, 3} {
		cells = append(cells, Cell{cfg.poisson(1, 5, dmax), cfg.Trials, cfg.seeds(0, 5), []engine.Solver{engine.MRTSolver{}}, nil,
			func(cols [][]engine.Verdict, _ []float64) {
				tab.row("%d %.2f %.2f %.0f %d %.1f", dmax, avg(cols[0], stat("rho")), avg(cols[0], maxResponse),
					peak(cols[0], rawOverload), 2*dmax-1, avg(cols[0], flows))
			}})
	}
	return tab, cells
}

// amrt validates the online Lemma 5.3 algorithm against the offline
// optimum, on the same draws, per load ratio.
func amrt(cfg Config) (Output, []Cell) {
	tab := &Table{Title: "amrt online max response (Lemma 5.3)",
		Columns: strings.Fields("load final_rho maxRT 2*final_rho offline_rho online/offline")}
	var cells []Cell
	for ri, ratio := range cfg.Ratios {
		cells = append(cells, Cell{cfg.poisson(ratio, 5, 1), cfg.Trials, cfg.seeds(ri, 5),
			[]engine.Solver{engine.AMRTSolver{}}, []Bound{mrtLowerBound},
			func(cols [][]engine.Verdict, lb []float64) {
				final, maxRT := avg(cols[0], stat("final_rho")), avg(cols[0], maxResponse)
				tab.row("%s %.2f %.2f %.2f %.2f %.2f", ratioName(ratio), final, maxRT, 2*final, lb[0], ratioOrZero(maxRT, lb[0]))
			}})
	}
	return tab, cells
}

// fig4a shows the Lemma 5.1 divergence: on the Figure 4(a) gadget of length
// M (T = M/4) every heuristic's ratio to the offline cost grows with M.
func fig4a(cfg Config) (Output, []Cell) {
	pols := stream.PaperNames()
	tab := &Table{Title: "fig4a online ART lower bound gadget (Lemma 5.1)", Columns: strings.Fields("gadget_M T opt_upper")}
	for _, p := range pols {
		tab.Columns = append(tab.Columns, p+"/opt")
	}
	var cells []Cell
	for _, gm := range []int{24, 48, 96, 192} {
		T := gm / 4
		cells = append(cells, Cell{engine.Fig4aGen{T: T, M: gm}, 1, cfg.seeds(0, T), policies(pols), nil,
			func(cols [][]engine.Verdict, _ []float64) {
				// The paper's offline schedule costs at most 2T per solid
				// pair plus 1 per dashed flow: total <= 4T + (gm - T).
				opt := float64(3*T + gm)
				row := strings.Fields(fmt.Sprintf("%d %d %.0f", gm, T, opt))
				for _, col := range cols {
					row = append(row, fmt.Sprintf("%.2f", float64(col[0].Report.TotalResponse)/opt))
				}
				tab.Rows = append(tab.Rows, row)
			}})
	}
	return tab, cells
}

// ablation compares the exact-matching heuristics against the native
// policies — among them the FIFO and greedy-age baselines — under heavy
// load, on the same draws.
func ablation(cfg Config) (Output, []Cell) {
	tab := &Table{Title: "ablation matching engines under load 4m", Columns: strings.Fields("policy avgRT maxRT")}
	pols := stream.AllNames()
	return tab, []Cell{{cfg.poisson(4, 10, 1), cfg.Trials, cfg.seeds(0, 10), policies(pols), nil,
		func(cols [][]engine.Verdict, _ []float64) {
			for s, pol := range pols {
				avgRT := avg(cols[s], func(v engine.Verdict) float64 { return v.Report.AvgResponse })
				tab.row("%s %.2f %.2f", pol, avgRT, avg(cols[s], maxResponse))
			}
		}}}
}

// bounds contrasts the cheap SRPT bound with the LP (1)-(4) bound,
// quantifying how much is lost when the LP is too large to solve.
func bounds(cfg Config) (Output, []Cell) {
	tab := &Table{Title: "bounds LP(1)-(4) vs per-port SRPT relaxation", Columns: strings.Fields("load LP_total SRPT_total SRPT/LP")}
	srpt := func(inst *switchnet.Instance) (float64, error) { return float64(core.SRPTLowerBound(inst)), nil }
	var cells []Cell
	for ri, ratio := range cfg.Ratios {
		cells = append(cells, Cell{cfg.poisson(ratio, 6, 1), cfg.LPTrials, cfg.seeds(ri, 6), nil, []Bound{artLowerBound, srpt},
			func(_ [][]engine.Verdict, lb []float64) {
				tab.row("%s %.1f %.1f %.2f", ratioName(ratio), lb[0], lb[1], ratioOrZero(lb[1], lb[0]))
			}})
	}
	return tab, cells
}

// sweep crosses the engine's default solver registry with its default
// workload patterns at the configuration's scale, in the order workload,
// then trial, then solver, so every solver of a trial judges one draw.
func sweep(cfg Config) (Output, []Cell) {
	T := 4
	if len(cfg.HeurT) > 0 {
		T = cfg.HeurT[0]
	}
	out := Sweep{&engine.ResultTable{}}
	var cells []Cell
	for gi, gen := range engine.Generators(cfg.Ports, T) {
		seed := func(trial int) int64 { return engine.DeriveSeed(cfg.Seed, gi, trial) }
		cells = append(cells, Cell{gen, max(cfg.Trials, 1), seed, engine.Solvers(), nil,
			func(cols [][]engine.Verdict, _ []float64) {
				vs := out.Verdicts
				for tr := range cols[0] {
					for _, col := range cols {
						vs = append(vs, col[tr])
					}
				}
				*out.ResultTable = *engine.NewResultTable(vs)
			}})
	}
	return out, cells
}
