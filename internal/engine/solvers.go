package engine

import (
	"fmt"
	"sort"

	"flowsched/internal/coflow"
	"flowsched/internal/core"
	"flowsched/internal/lp"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// lpStatKeys names, in table order, the solver-stage counts an LP-backed
// solver reports in Solution.Stats beside lp_pivots.
var lpStatKeys = []string{
	"lp_rows", "lp_cols", "lp_nnz", "lp_phase1_pivots", "lp_phase2_pivots",
	"lp_bound_flips", "lp_refactors", "lp_lu_peak_nnz", "lp_perturbations",
	"lp_start_at_upper", "lp_start_basic",
}

// withLPStats adds st under lpStatKeys to a solver's stats.
func withLPStats(stats map[string]float64, st lp.Stats) map[string]float64 {
	for i, v := range []int{
		st.Rows, st.Cols, st.Nonzeros, st.Phase1Pivots, st.Phase2Pivots,
		st.BoundFlips, st.Refactors, st.PeakLUNonzeros, st.Perturbations,
		st.StartAtUpper, st.StartBasic,
	} {
		stats[lpStatKeys[i]] = float64(v)
	}
	return stats
}

// ARTSolver adapts SolveART (Theorem 1): unit-demand instances, capacities
// scaled by 1+C.
type ARTSolver struct {
	// C >= 1 is the capacity augmentation parameter.
	C int
}

// Name implements Solver.
func (s ARTSolver) Name() string { return fmt.Sprintf("ART(c=%d)", s.C) }

// Solve implements Solver.
func (s ARTSolver) Solve(inst *switchnet.Instance) (*Solution, error) {
	res, err := core.SolveART(inst, s.C)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Schedule: res.Schedule,
		Caps:     switchnet.ScaleCaps(inst.Switch.Caps(), res.CapFactor),
		Stats: withLPStats(map[string]float64{
			"lp_bound":            res.LPBound,
			"pseudo_total":        float64(res.PseudoTotal),
			"rounding_iterations": float64(res.RoundingIterations),
			"window_h":            float64(res.WindowH),
			"batches":             float64(res.Batches),
			"lp_pivots":           float64(res.LPIterations),
			"cap_factor":          float64(res.CapFactor),
		}, res.LP),
	}, nil
}

// MRTSolver adapts SolveMRT (Theorem 3): optimal maximum response time with
// additive augmentation 2*d_max-1.
type MRTSolver struct{}

// Name implements Solver.
func (MRTSolver) Name() string { return "MRT" }

// Solve implements Solver.
func (MRTSolver) Solve(inst *switchnet.Instance) (*Solution, error) {
	res, err := core.SolveMRT(inst)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Schedule: res.Schedule,
		Caps:     switchnet.AddCaps(inst.Switch.Caps(), res.CapIncrease),
		Stats: withLPStats(map[string]float64{
			"rho":              float64(res.Rho),
			"cap_increase":     float64(res.CapIncrease),
			"lp_pivots":        float64(res.LPIterations),
			"lp_search_pivots": float64(res.SearchLP.Pivots()),
		}, res.LP),
	}, nil
}

// AMRTSolver adapts OnlineAMRT (Lemma 5.3): online batching, capacities
// 2*(c_p + 2*d_max - 1).
type AMRTSolver struct{}

// Name implements Solver.
func (AMRTSolver) Name() string { return "AMRT" }

// Solve implements Solver.
func (AMRTSolver) Solve(inst *switchnet.Instance) (*Solution, error) {
	res, err := core.OnlineAMRT(inst)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Schedule: res.Schedule,
		Caps:     core.AMRTCaps(inst),
		Stats: map[string]float64{
			"final_rho":    float64(res.FinalRho),
			"rho_bumps":    float64(res.RhoBumps),
			"checkpoints":  float64(res.Checkpoints),
			"cap_increase": float64(2*inst.MaxDemand() - 1),
			"cap_factor":   2,
		},
	}, nil
}

// PolicySolver replays the instance (stream.Replay) under the stream
// policy table's entry Policy, on raw capacities. It resolves a fresh
// policy per Solve: native policies carry per-run state, and the pool
// runs Solve concurrently.
type PolicySolver struct {
	Policy string
}

// Name implements Solver.
func (s PolicySolver) Name() string { return s.Policy }

// Solve implements Solver.
func (s PolicySolver) Solve(inst *switchnet.Instance) (*Solution, error) {
	pol := stream.ByName(s.Policy)
	if pol == nil {
		return nil, fmt.Errorf("engine: unknown policy %q", s.Policy)
	}
	res, _, err := stream.Replay(inst, stream.Config{Policy: pol})
	if err != nil {
		return nil, err
	}
	return &Solution{
		Schedule: res.Schedule,
		Caps:     inst.Switch.Caps(),
		Stats:    map[string]float64{"rounds": float64(res.Rounds)},
	}, nil
}

// CoflowSolver adapts the coflow policies (Varys-style SEBF, SCF, FIFO) to
// plain flow instances by treating each release round's flows as one
// coflow — the natural batch semantics of a shuffle stage — then mapping
// the flattened schedule back onto the original flow indices.
type CoflowSolver struct {
	// Policy is "SEBF", "SCF" or "FIFO".
	Policy string
}

// Name implements Solver.
func (s CoflowSolver) Name() string { return "Coflow/" + s.Policy }

// Solve implements Solver.
func (s CoflowSolver) Solve(inst *switchnet.Instance) (*Solution, error) {
	// Group flow indices by release round, ascending.
	byRelease := map[int][]int{}
	for f, e := range inst.Flows {
		byRelease[e.Release] = append(byRelease[e.Release], f)
	}
	releases := make([]int, 0, len(byRelease))
	for r := range byRelease {
		releases = append(releases, r)
	}
	sort.Ints(releases)

	cin := &coflow.Instance{Switch: inst.Switch}
	var orig []int // flattened index -> original flow index
	for _, r := range releases {
		cf := coflow.Coflow{Release: r}
		for _, f := range byRelease[r] {
			cf.Members = append(cf.Members, inst.Flows[f])
			orig = append(orig, f)
		}
		cin.Coflows = append(cin.Coflows, cf)
	}

	var mk func(owner []int) stream.Policy
	switch s.Policy {
	case "SEBF":
		mk = coflow.SEBF
	case "SCF":
		mk = coflow.SCF
	case "FIFO":
		mk = func(owner []int) stream.Policy { return coflow.FIFO(cin, owner) }
	default:
		return nil, fmt.Errorf("engine: unknown coflow policy %q", s.Policy)
	}
	cfRes, simRes, err := coflow.Run(cin, mk)
	if err != nil {
		return nil, err
	}
	sched := switchnet.NewSchedule(inst.N())
	for i, f := range orig {
		sched.Round[f] = simRes.Schedule.Round[i]
	}
	return &Solution{
		Schedule: sched,
		Caps:     inst.Switch.Caps(),
		Stats: map[string]float64{
			"coflows":           float64(len(cin.Coflows)),
			"coflow_total_resp": float64(cfRes.TotalResponse),
			"coflow_max_resp":   float64(cfRes.MaxResponse),
			"rounds":            float64(simRes.Rounds),
		},
	}, nil
}

// Solvers returns the default solver registry: the paper's two offline
// algorithms, the online batching algorithm, the paper's three
// heuristics (Section 5.2), and the coflow extension.
func Solvers() []Solver {
	out := []Solver{ARTSolver{C: 1}, MRTSolver{}, AMRTSolver{}}
	for _, name := range stream.PaperNames() {
		out = append(out, PolicySolver{Policy: name})
	}
	return append(out, CoflowSolver{Policy: "SEBF"})
}
