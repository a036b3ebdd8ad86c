package flowsched

// The benchmark harness regenerates every evaluation artifact of the paper
// (see DESIGN.md section 4 for the experiment index):
//
//	BenchmarkFig6*  - Figure 6: average response time of MaxCard, MinRTime,
//	                  MaxWeight vs the LP (1)-(4) lower bound.
//	BenchmarkFig7*  - Figure 7: maximum response time vs the binary-search
//	                  LP (19)-(21) lower bound.
//	BenchmarkTheorem1 - ART approximation vs LP bound under (1+c) capacity.
//	BenchmarkTheorem3 - MRT optimality and measured capacity overshoot.
//	BenchmarkAMRT     - Lemma 5.3 online algorithm vs offline optimum.
//	BenchmarkFig4a    - Lemma 5.1 unbounded-competitiveness gadget.
//	BenchmarkIterRoundOverload - Lemma 3.3/3.7 interval overload ablation.
//	BenchmarkAblation* - matching-engine and augmentation ablations.
//	BenchmarkOfflineLadder - the offline LP pipeline at growing paper-model
//	                  sizes, with pivots, perturbations, peak L+U nonzeros
//	                  and milliseconds per call per rung.
//	BenchmarkVerifyWindow - the feasibility oracle on one stream-sized
//	                  window, cold (CheckSchedule) and on a warmed Checker.
//
// Benchmarks use a scaled-down default grid (8-port switch, same load
// ratios M/m as the paper's 150-port runs); cmd/experiments regenerates
// the figures at any scale. Metrics are attached via b.ReportMetric:
// avgRT, maxRT (response times) and ratio (heuristic / lower bound).
import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"flowsched/internal/core"
	"flowsched/internal/lp"
	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
	"flowsched/internal/workload"
)

// benchPorts is the default switch size for simulation benches. The paper
// uses 150 ports; the load ratios M/m below match its M in {50,...,600}.
const benchPorts = 8

// loadRatios mirrors the paper's M/m in {1/3, 2/3, 1, 2, 4}.
var loadRatios = []struct {
	name  string
	ratio float64
}{
	{"M=m/3", 1.0 / 3},
	{"M=2m/3", 2.0 / 3},
	{"M=m", 1},
	{"M=2m", 2},
	{"M=4m", 4},
}

// simAverages runs `trials` seeded simulations and returns mean avg / max
// response plus the instances' mean flow count.
func simAverages(b *testing.B, cfg PoissonConfig, pol Policy, trials int, seed int64) (avg, max float64) {
	b.Helper()
	var sumAvg, sumMax float64
	for tr := 0; tr < trials; tr++ {
		rng := rand.New(rand.NewSource(seed + int64(tr)))
		inst := GeneratePoisson(cfg, rng)
		if inst.N() == 0 {
			continue
		}
		res, err := Simulate(inst, pol)
		if err != nil {
			b.Fatal(err)
		}
		sumAvg += res.AvgResponse
		sumMax += float64(res.MaxResponse)
	}
	return sumAvg / float64(trials), sumMax / float64(trials)
}

// BenchmarkFig6AvgResponse regenerates the heuristic curves of Figure 6:
// average response time per policy over the load grid.
func BenchmarkFig6AvgResponse(b *testing.B) {
	for _, lr := range loadRatios {
		M := lr.ratio * benchPorts
		for _, T := range []int{10, 20, 40} {
			cfg := PoissonConfig{M: M, T: T, Ports: benchPorts}
			for _, pol := range Policies() {
				b.Run(fmt.Sprintf("%s/T=%d/%s", lr.name, T, pol.Name()), func(b *testing.B) {
					var avg float64
					for i := 0; i < b.N; i++ {
						avg, _ = simAverages(b, cfg, pol, 3, int64(i)*97+1)
					}
					b.ReportMetric(avg, "avgRT")
				})
			}
		}
	}
}

// BenchmarkFig6LPGap regenerates the LP-comparison panels of Figure 6 at a
// LP-tractable scale: the ratio of each heuristic's average response time
// to the LP (1)-(4) lower bound.
func BenchmarkFig6LPGap(b *testing.B) {
	const ports = 6
	for _, lr := range loadRatios {
		M := lr.ratio * ports
		T := 8
		cfg := PoissonConfig{M: M, T: T, Ports: ports}
		for _, pol := range Policies() {
			b.Run(fmt.Sprintf("%s/%s", lr.name, pol.Name()), func(b *testing.B) {
				var ratio float64
				for i := 0; i < b.N; i++ {
					rng := rand.New(rand.NewSource(int64(i)*131 + 7))
					inst := GeneratePoisson(cfg, rng)
					if inst.N() == 0 {
						continue
					}
					res, err := Simulate(inst, pol)
					if err != nil {
						b.Fatal(err)
					}
					lb, err := ARTLowerBound(inst)
					if err != nil {
						b.Fatal(err)
					}
					if lb.TotalResponse > 0 {
						ratio = float64(res.TotalResponse) / lb.TotalResponse
					}
				}
				b.ReportMetric(ratio, "ratio")
			})
		}
	}
}

// BenchmarkFig7MaxResponse regenerates the heuristic curves of Figure 7:
// maximum response time per policy over the load grid.
func BenchmarkFig7MaxResponse(b *testing.B) {
	for _, lr := range loadRatios {
		M := lr.ratio * benchPorts
		for _, T := range []int{10, 20, 40} {
			cfg := PoissonConfig{M: M, T: T, Ports: benchPorts}
			for _, pol := range Policies() {
				b.Run(fmt.Sprintf("%s/T=%d/%s", lr.name, T, pol.Name()), func(b *testing.B) {
					var max float64
					for i := 0; i < b.N; i++ {
						_, max = simAverages(b, cfg, pol, 3, int64(i)*193+3)
					}
					b.ReportMetric(max, "maxRT")
				})
			}
		}
	}
}

// BenchmarkFig7LPGap regenerates the LP-comparison panels of Figure 7: the
// ratio of each heuristic's maximum response time to the binary-search
// LP (19)-(21) lower bound.
func BenchmarkFig7LPGap(b *testing.B) {
	const ports = 6
	for _, lr := range loadRatios {
		M := lr.ratio * ports
		cfg := PoissonConfig{M: M, T: 8, Ports: ports}
		for _, pol := range Policies() {
			b.Run(fmt.Sprintf("%s/%s", lr.name, pol.Name()), func(b *testing.B) {
				var ratio float64
				for i := 0; i < b.N; i++ {
					rng := rand.New(rand.NewSource(int64(i)*61 + 11))
					inst := GeneratePoisson(cfg, rng)
					if inst.N() == 0 {
						continue
					}
					res, err := Simulate(inst, pol)
					if err != nil {
						b.Fatal(err)
					}
					lb, err := MRTLowerBound(inst)
					if err != nil {
						b.Fatal(err)
					}
					if lb > 0 {
						ratio = float64(res.MaxResponse) / float64(lb)
					}
				}
				b.ReportMetric(ratio, "ratio")
			})
		}
	}
}

// BenchmarkTheorem1 validates and times the FS-ART pipeline: rounded
// schedule cost over the LP bound for c in {1,2,4}.
func BenchmarkTheorem1(b *testing.B) {
	for _, c := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i) + 5))
				inst := GeneratePoisson(PoissonConfig{M: 5, T: 6, Ports: 5}, rng)
				if inst.N() == 0 {
					continue
				}
				res, err := SolveART(inst, c)
				if err != nil {
					b.Fatal(err)
				}
				if res.LPBound > 0 {
					ratio = float64(res.Schedule.TotalResponse(inst)) / res.LPBound
				}
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// BenchmarkTheorem3 validates and times the FS-MRT pipeline; the reported
// overshoot is the measured port overload relative to the 2*d_max-1 budget.
func BenchmarkTheorem3(b *testing.B) {
	for _, dmax := range []int{1, 3} {
		b.Run(fmt.Sprintf("dmax=%d", dmax), func(b *testing.B) {
			var rho, usedBudget float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i) + 31))
				inst := GeneratePoisson(PoissonConfig{M: 6, T: 6, Ports: 5, Cap: dmax, MaxDemand: dmax}, rng)
				if inst.N() == 0 {
					continue
				}
				res, err := SolveMRT(inst)
				if err != nil {
					b.Fatal(err)
				}
				rho = float64(res.Rho)
				over := res.Schedule.MaxOverload(inst, inst.Switch.Caps())
				usedBudget = float64(over)
			}
			b.ReportMetric(rho, "rho")
			b.ReportMetric(usedBudget, "overload")
		})
	}
}

// BenchmarkAMRT times the online Lemma 5.3 algorithm and reports its final
// guess against the offline optimum.
func BenchmarkAMRT(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 41))
		inst := GeneratePoisson(PoissonConfig{M: 4, T: 6, Ports: 4}, rng)
		if inst.N() == 0 {
			continue
		}
		on, err := OnlineAMRT(inst)
		if err != nil {
			b.Fatal(err)
		}
		off, err := MRTLowerBound(inst)
		if err != nil {
			b.Fatal(err)
		}
		if off > 0 {
			ratio = float64(on.Schedule.MaxResponse(inst)) / float64(off)
		}
	}
	b.ReportMetric(ratio, "vs_offline")
}

// BenchmarkFig4a reproduces the Lemma 5.1 separation: the competitive
// ratio of every heuristic on the gadget grows with the gadget length M.
func BenchmarkFig4a(b *testing.B) {
	for _, gm := range []int{20, 40, 80} {
		T := gm / 4
		b.Run(fmt.Sprintf("M=%d", gm), func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				inst := Fig4a(T, gm)
				// OPT's schedule: (1,3) first T rounds, then (1,2)//(4,3).
				opt := 2 * T // every flow can achieve response O(1) amortized; use LP for truth
				lb := SRPTLowerBound(inst)
				if lb > opt {
					opt = lb
				}
				for _, pol := range Policies() {
					res, err := Simulate(inst, pol)
					if err != nil {
						b.Fatal(err)
					}
					if r := float64(res.TotalResponse) / float64(opt); r > worst {
						worst = r
					}
				}
			}
			b.ReportMetric(worst, "ratio_vs_opt")
		})
	}
}

// BenchmarkIterRoundOverload measures the Lemma 3.7 interval overload of
// the pseudo-schedule as n grows (the O(cp log n) ablation, experiment E9).
func BenchmarkIterRoundOverload(b *testing.B) {
	for _, n := range []int{20, 40, 80} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i) + 61))
				inst := GeneratePoisson(PoissonConfig{M: float64(n) / 6, T: 6, Ports: 5}, rng)
				if inst.N() == 0 {
					continue
				}
				ps, err := IterativeRound(inst)
				if err != nil {
					b.Fatal(err)
				}
				worst = float64(maxIntervalOverload(inst, ps.Round))
			}
			b.ReportMetric(worst, "overload")
		})
	}
}

// maxIntervalOverload computes max over ports and intervals of
// load - cp*length for an assignment of flows to rounds.
func maxIntervalOverload(inst *Instance, round []int) int {
	horizon := 0
	for _, r := range round {
		if r+1 > horizon {
			horizon = r + 1
		}
	}
	numPorts := inst.Switch.NumPorts()
	loads := make([][]int, horizon)
	for t := range loads {
		loads[t] = make([]int, numPorts)
	}
	for f, r := range round {
		e := inst.Flows[f]
		loads[r][inst.Switch.PortIndex(switchnet.In, e.In)] += e.Demand
		loads[r][inst.Switch.PortIndex(switchnet.Out, e.Out)] += e.Demand
	}
	worst := 0
	for p := 0; p < numPorts; p++ {
		cp := inst.Switch.Cap(p)
		for t1 := 0; t1 < horizon; t1++ {
			sum := 0
			for t2 := t1; t2 < horizon; t2++ {
				sum += loads[t2][p]
				if over := sum - cp*(t2-t1+1); over > worst {
					worst = over
				}
			}
		}
	}
	return worst
}

// BenchmarkAblationMatching compares MinRTime's exact max-weight matching
// against the greedy half-approximation on the same workloads (E10).
func BenchmarkAblationMatching(b *testing.B) {
	cfg := PoissonConfig{M: 16, T: 10, Ports: 8}
	for _, pol := range []Policy{MinRTime, GreedyAge, FIFO} {
		b.Run(pol.Name(), func(b *testing.B) {
			var max float64
			for i := 0; i < b.N; i++ {
				_, max = simAverages(b, cfg, pol, 3, int64(i)*29+17)
			}
			b.ReportMetric(max, "maxRT")
		})
	}
}

// BenchmarkAblationAugment sweeps the ART capacity augmentation c,
// measuring how the realized approximation ratio decays (E10).
func BenchmarkAblationAugment(b *testing.B) {
	for _, c := range []int{1, 2, 3, 4, 6} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(77))
				inst := GeneratePoisson(PoissonConfig{M: 5, T: 6, Ports: 5}, rng)
				res, err := SolveART(inst, c)
				if err != nil {
					b.Fatal(err)
				}
				if res.LPBound > 0 {
					ratio = float64(res.Schedule.TotalResponse(inst)) / res.LPBound
				}
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// Substrate microbenches: the building blocks the paper outsourced to
// Lemon and Gurobi.

func BenchmarkSubstrateLPSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	inst := GeneratePoisson(PoissonConfig{M: 6, T: 6, Ports: 6}, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ARTLowerBound(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOfflineLadder runs the paper's offline pipeline — ARTLowerBound,
// SolveART(c=1), SolveMRT — on one seeded paper-model instance per rung (a
// unit switch, unit flows, uniform releases: the shape of the benchmark's
// offline_paper workload, which is the first rung). Beside ns/op it reports
// the simplex pivots of the three calls together (SolveMRT's search
// included, each LP counted once), how many stalls the solver answered with
// a bound perturbation, the largest L+U any of their factorisations stored,
// and the milliseconds each call took. CI runs the rungs through 20x20/400;
// 30x30/900 is there to be run by hand (a minute or two).
func BenchmarkOfflineLadder(b *testing.B) {
	for _, rung := range []struct {
		name                 string
		ports, rounds, flows int
	}{
		{"5x5_25", 5, 5, 25},
		{"10x10_100", 10, 10, 100},
		{"20x20_400", 20, 10, 400},
		{"30x30_900", 30, 10, 900},
	} {
		b.Run(rung.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			inst := &Instance{Switch: UnitSwitch(rung.ports), Flows: make([]Flow, rung.flows)}
			for j := range inst.Flows {
				inst.Flows[j] = Flow{In: rng.Intn(rung.ports), Out: rng.Intn(rung.ports), Demand: 1, Release: rng.Intn(rung.rounds)}
			}
			var (
				st      lp.Stats
				elapsed [3]time.Duration
			)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var (
					lb  *ARTLowerBoundResult
					art *ARTResult
					mrt *MRTResult
				)
				for k, call := range []func() error{
					func() (err error) { lb, err = ARTLowerBound(inst); return },
					func() (err error) { art, err = SolveART(inst, 1); return },
					func() (err error) { mrt, err = SolveMRT(inst); return },
				} {
					start := time.Now()
					if err := call(); err != nil {
						b.Fatal(err)
					}
					elapsed[k] += time.Since(start)
				}
				st = lb.LP
				st.Add(art.LP)
				st.Add(mrt.LP)
				st.Add(mrt.SearchLP)
			}
			b.ReportMetric(float64(st.Pivots()), "pivots")
			b.ReportMetric(float64(st.Perturbations), "perturbations")
			b.ReportMetric(float64(st.PeakLUNonzeros), "peak_lu_nnz")
			for k, name := range []string{"art_lb_ms", "solve_art_ms", "solve_mrt_ms"} {
				b.ReportMetric(elapsed[k].Seconds()*1e3/float64(b.N), name)
			}
		})
	}
}

// BenchmarkVerifyWindow runs the feasibility oracle over one verification
// window of the size the drain_verified workload flushes: a 150-port unit
// switch saturated for 256 rounds (a rotating permutation per round, 38400
// flows, in round order). "cold" is CheckSchedule, which builds its scratch
// per call; "warm" is one Checker kept across calls, the way the stream
// runtime keeps its, and fails if a warmed check allocates.
func BenchmarkVerifyWindow(b *testing.B) {
	const ports, rounds = 150, 256
	inst := &Instance{Switch: UnitSwitch(ports)}
	sched := &Schedule{}
	for r := 0; r < rounds; r++ {
		for i := 0; i < ports; i++ {
			inst.Flows = append(inst.Flows, Flow{In: i, Out: (i + r) % ports, Demand: 1, Release: r})
			sched.Round = append(sched.Round, r)
		}
	}
	caps := inst.Switch.Caps()
	perFlow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(inst.Flows)), "ns/flow")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := CheckSchedule(inst, sched, caps); err != nil {
				b.Fatal(err)
			}
		}
		perFlow(b)
	})
	b.Run("warm", func(b *testing.B) {
		var c verify.Checker
		check := func() {
			if _, err := c.Check(inst, sched, caps); err != nil {
				b.Fatal(err)
			}
		}
		check()
		if allocs := testing.AllocsPerRun(1, check); allocs != 0 {
			b.Fatalf("a warmed Checker performed %v allocs on a window it had seen, want 0", allocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			check()
		}
		perFlow(b)
	})
}

func BenchmarkSubstrateSimRound(b *testing.B) {
	// Paper-scale switch: one full drain of a 150-port instance.
	rng := rand.New(rand.NewSource(9))
	inst := GeneratePoisson(PoissonConfig{M: 150, T: 10, Ports: 150}, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(inst, MaxCard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateSRPTBound(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	inst := GeneratePoisson(PoissonConfig{M: 300, T: 20, Ports: 150}, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SRPTLowerBound(inst)
	}
}

func BenchmarkSubstrateIterativeRound(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	inst := GeneratePoisson(PoissonConfig{M: 4, T: 6, Ports: 5}, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := IterativeRound(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// Ensure the workload package's extended generators stay exercised.
func BenchmarkSubstratePermutationWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		inst := workload.Permutation(rng, 64, 32)
		if inst.N() != 64*32 {
			b.Fatal("bad permutation workload")
		}
	}
}

// BenchmarkOpenProblem probes the Section 6 open question on smooth
// sequences: the reported rho is the worst uniform max response achieved
// with NO capacity augmentation (the conjecture is that a constant always
// suffices; observed values stay at 1-3).
func BenchmarkOpenProblem(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 3))
		for trial := 0; trial < 5; trial++ {
			inst := workload.SmoothSequence(rng, 3, 5)
			if inst.N() == 0 || inst.N() > 16 {
				continue
			}
			rho := core.OpenProblemProbe(inst, 8)
			if rho < 0 {
				b.Fatal("smooth sequence not schedulable with rho <= 8")
			}
			if float64(rho) > worst {
				worst = float64(rho)
			}
		}
	}
	b.ReportMetric(worst, "worst_rho")
}

// BenchmarkCoflow compares coflow-aware policies (Section 6
// generalization) against coflow-oblivious FIFO on a skewed job mix.
func BenchmarkCoflow(b *testing.B) {
	build := func(rng *rand.Rand) *CoflowInstance {
		in := &CoflowInstance{Switch: UnitSwitch(benchPorts)}
		for e := 0; e < 2; e++ {
			cf := Coflow{Release: e}
			for i := 0; i < 3*benchPorts; i++ {
				cf.Members = append(cf.Members, Flow{In: rng.Intn(benchPorts), Out: rng.Intn(benchPorts), Demand: 1})
			}
			in.Coflows = append(in.Coflows, cf)
		}
		for t := 0; t < 10; t++ {
			in.Coflows = append(in.Coflows, Coflow{Release: t, Members: []Flow{
				{In: rng.Intn(benchPorts), Out: rng.Intn(benchPorts), Demand: 1},
			}})
		}
		return in
	}
	type entry struct {
		name string
		mk   func(in *CoflowInstance) func(owner []int) Policy
	}
	for _, e := range []entry{
		{"FIFO", CoflowFIFO},
		{"SCF", func(*CoflowInstance) func([]int) Policy { return CoflowSCF }},
		{"SEBF", func(*CoflowInstance) func([]int) Policy { return CoflowSEBF }},
	} {
		b.Run(e.name, func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i) + 19))
				in := build(rng)
				res, _, err := SimulateCoflows(in, e.mk(in))
				if err != nil {
					b.Fatal(err)
				}
				avg = res.AvgResponse()
			}
			b.ReportMetric(avg, "avgCoflowRT")
		})
	}
}

// BenchmarkExtendedWorkloads runs the heuristics on the permutation and
// hotspot traffic patterns that extend the paper's uniform-traffic
// evaluation (Section 6 "generalizations" direction).
func BenchmarkExtendedWorkloads(b *testing.B) {
	gens := []struct {
		name string
		gen  func(rng *rand.Rand) *Instance
	}{
		{"permutation", func(rng *rand.Rand) *Instance { return workload.Permutation(rng, benchPorts, 16) }},
		{"hotspot", func(rng *rand.Rand) *Instance {
			return workload.Hotspot(rng, benchPorts, float64(benchPorts), 16, 0.5)
		}},
	}
	for _, g := range gens {
		for _, pol := range Policies() {
			b.Run(fmt.Sprintf("%s/%s", g.name, pol.Name()), func(b *testing.B) {
				var avg, max float64
				for i := 0; i < b.N; i++ {
					rng := rand.New(rand.NewSource(int64(i) + 23))
					inst := g.gen(rng)
					res, err := Simulate(inst, pol)
					if err != nil {
						b.Fatal(err)
					}
					avg = res.AvgResponse
					max = float64(res.MaxResponse)
				}
				b.ReportMetric(avg, "avgRT")
				b.ReportMetric(max, "maxRT")
			})
		}
	}
}
