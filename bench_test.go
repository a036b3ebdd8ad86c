package flowsched

// The Go benchmarks time the building blocks the paper outsourced to Lemon
// and Gurobi, and the three that CI runs on every push:
//
//	BenchmarkOfflineLadder - the offline LP pipeline at growing paper-model
//	                  sizes and at two cells of the paper's own grid (150
//	                  ports), with the LP (1)-(4) horizon solved, the LPs
//	                  SolveMRT built, pivots, phase-1 pivots, flows in the
//	                  starting basis, perturbations, peak L+U nonzeros,
//	                  milliseconds per call and B/op and allocs/op per rung.
//	BenchmarkOfflinePaper - one pass of the benchmark's offline_paper
//	                  workload, oracle checks included, with its
//	                  alloc_bytes_per_flow as B/flow beside allocs/flow and
//	                  us/flow.
//	BenchmarkVerifyWindow - the feasibility oracle on one stream-sized
//	                  window, pooled (CheckSchedule) and on a warmed
//	                  Checker.
//	BenchmarkSubstrate* - one LP solve, one 150-port drain, the SRPT bound,
//	                  the iterative rounding, a workload generator.
//
// The streaming runtime's pick has its own ladder, BenchmarkOldestFirstPick
// in internal/stream/bench_test.go, beside the unexported counters it
// reports (heads ordered and stages per round); CI runs it too.
//
// Nothing here reports a schedule's quality: a b.N loop keeps whatever its
// last iteration drew. The paper's figures and theorem tables — the
// heuristics against the LP bounds, Theorems 1 and 3, Lemmas 5.1 and 5.3,
// the ablations — are the artifact registry of internal/experiments, run
// with `flowsim paper -fig KEY` on fixed seeds and oracle-verified
// schedules, and asserted by that package's tests; Lemma 3.3's interval
// overload is core's TestIterativeRoundOverloadBound, the Section 6 probe
// core's TestSmoothSequencesScheduleWithSmallRho, coflow-aware against
// coflow-oblivious order coflow's TestSEBFBeatsFIFOOnSkew.
import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"flowsched/internal/core"
	"flowsched/internal/lp"
	"flowsched/internal/verify"
	"flowsched/internal/workload"
)

func BenchmarkSubstrateLPSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	inst := workload.PoissonConfig{M: 6, T: 6, Ports: 6}.Generate(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ARTLowerBound(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOfflineLadder runs the paper's offline pipeline — ARTLowerBound,
// SolveART(c=1), SolveMRT — on one seeded instance per rung. The n x n rungs
// are paper-model instances (a unit switch, unit flows, uniform releases:
// the shape of the benchmark's offline_paper workload, which is the first
// rung) at load M >= m, the paper's hard corner; the 150p rungs are cells of
// the paper's own grid (Section 5.2: 150 ports, Poisson arrivals of mean M
// per round for T rounds, workload.PoissonConfig at seed 1). Beside ns/op it
// reports the horizon ARTLowerBound solved LP (1)-(4) over (lb_horizon:
// where first fit ends when the duals certify it, the congestion horizon
// beside it otherwise), how many feasibility LPs SolveMRT's search built
// (mrt_lps: 0 when first fit answered every rho it tried), the simplex
// pivots of the three calls together (SolveMRT's search included, each LP
// counted once), how many of them were phase 1, how many flows the crash
// starts put in a starting basis, how many stalls the solver answered with a
// bound perturbation, the largest L+U any of their factorisations stored,
// the milliseconds each call took, and B/op and allocs/op for the three
// calls together. CI runs every rung but 30x30/900, which is there to be run
// by hand (a minute or two).
func BenchmarkOfflineLadder(b *testing.B) {
	paperModel := func(ports, rounds, flows int) func() *Instance {
		return func() *Instance {
			rng := rand.New(rand.NewSource(1))
			inst := &Instance{Switch: UnitSwitch(ports), Flows: make([]Flow, flows)}
			for j := range inst.Flows {
				inst.Flows[j] = Flow{In: rng.Intn(ports), Out: rng.Intn(ports), Demand: 1, Release: rng.Intn(rounds)}
			}
			return inst
		}
	}
	poisson := func(m float64, t int) func() *Instance {
		return func() *Instance {
			return workload.PoissonConfig{M: m, T: t, Ports: 150}.Generate(rand.New(rand.NewSource(1)))
		}
	}
	for _, rung := range []struct {
		name string
		inst func() *Instance
	}{
		{"5x5_25", paperModel(5, 5, 25)},
		{"10x10_100", paperModel(10, 10, 100)},
		{"20x20_400", paperModel(20, 10, 400)},
		{"30x30_900", paperModel(30, 10, 900)},
		{"150p_M50_T6", poisson(50, 6)},
		{"150p_M100_T6", poisson(100, 6)},
	} {
		b.Run(rung.name, func(b *testing.B) {
			b.ReportAllocs()
			inst := rung.inst()
			var (
				st                lp.Stats
				elapsed           [3]time.Duration
				lbHorizon, mrtLPs int
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
				lbHorizon, mrtLPs = lb.Horizon, mrt.LPs
			}
			b.ReportMetric(float64(lbHorizon), "lb_horizon")
			b.ReportMetric(float64(inst.CongestionHorizon()), "congestion_horizon")
			b.ReportMetric(float64(mrtLPs), "mrt_lps")
			b.ReportMetric(float64(st.Pivots()), "pivots")
			b.ReportMetric(float64(st.Phase1Pivots), "phase1_pivots")
			b.ReportMetric(float64(st.StartBasic), "start_basic")
			b.ReportMetric(float64(st.Perturbations), "perturbations")
			b.ReportMetric(float64(st.PeakLUNonzeros), "peak_lu_nnz")
			for k, name := range []string{"art_lb_ms", "solve_art_ms", "solve_mrt_ms"} {
				b.ReportMetric(elapsed[k].Seconds()*1e3/float64(b.N), name)
			}
		})
	}
}

// BenchmarkOfflinePaper is one pass of the benchmark's offline_paper
// workload over its instances: 64 paper-model instances (a 5x5 unit switch,
// 25 unit flows each, releases uniform on [0, 5), generated as the harness
// does at seed 1), and per instance ARTLowerBound, SolveART(c=1) checked by
// CheckScaled at its CapFactor, MRTLowerBound, and SolveMRT checked by
// CheckAugmented at +2*d_max-1. Its per-flow figures are the harness's
// alloc_bytes_per_flow and the allocation count beside it: B/flow and
// allocs/flow divide the heap the b.N passes allocated by the flows they
// solved, so the warmed figure (-benchtime 20x and up) reproduces the
// workload's without benchmark/: ~50-70 B/flow and 0.40 allocs/flow on two
// Ps, 48.0 B/flow at -cpu 1. The spread above the -cpu 1 figure is
// sync.Pool's per-P private slot: a pooled workspace or Checker left on the
// P the goroutine migrated away from is not found, and one is rebuilt; it
// shows with GOGC=off too, so it is not the GC emptying the pools.
func BenchmarkOfflinePaper(b *testing.B) {
	const count, ports, rounds, flows = 64, 5, 5, 25
	rng := rand.New(rand.NewSource(1))
	insts := make([]*Instance, count)
	for i := range insts {
		fl := make([]Flow, flows)
		for j := range fl {
			fl[j] = Flow{In: rng.Intn(ports), Out: rng.Intn(ports), Demand: 1, Release: rng.Intn(rounds)}
		}
		insts[i] = &Instance{Switch: UnitSwitch(ports), Flows: fl}
	}
	pass := func() {
		for _, inst := range insts {
			if _, err := ARTLowerBound(inst); err != nil {
				b.Fatal(err)
			}
			art, err := SolveART(inst, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := CheckScaled(inst, art.Schedule, art.CapFactor); err != nil {
				b.Fatal(err)
			}
			rho, err := MRTLowerBound(inst)
			if err != nil {
				b.Fatal(err)
			}
			mrt, err := SolveMRT(inst)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := CheckAugmented(inst, mrt.Schedule, 2*inst.MaxDemand()-1); err != nil {
				b.Fatal(err)
			}
			if mrt.Rho != rho {
				b.Fatalf("SolveMRT rho %d, MRTLowerBound %d", mrt.Rho, rho)
			}
		}
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	solved := float64(b.N * count * flows)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/solved, "B/flow")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/solved, "allocs/flow")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/solved/1e3, "us/flow")
}

// BenchmarkVerifyWindow runs the feasibility oracle over one verification
// window of the size the drain_verified workload reports on: a 150-port
// unit switch saturated for 256 rounds (a rotating permutation per round,
// 38400 flows, in round order). "pooled" is CheckSchedule, which checks on
// a Checker from the package's pool and copies its Report out; "warm" is
// one Checker kept across calls over the whole window; "round" is a warm
// Checker over the window's first round alone, 150 flows, the call the
// stream runtime makes as each round closes. The warm cases fail if a
// warmed check allocates.
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
	perFlow := func(b *testing.B, flows int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*flows), "ns/flow")
	}
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := CheckSchedule(inst, sched, caps); err != nil {
				b.Fatal(err)
			}
		}
		perFlow(b, len(inst.Flows))
	})
	warm := func(inst *Instance, sched *Schedule) func(b *testing.B) {
		return func(b *testing.B) {
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
			perFlow(b, len(inst.Flows))
		}
	}
	b.Run("warm", warm(inst, sched))
	b.Run("round", warm(&Instance{Switch: inst.Switch, Flows: inst.Flows[:ports]}, &Schedule{Round: sched.Round[:ports]}))
}

func BenchmarkSubstrateSimRound(b *testing.B) {
	// Paper-scale switch: one full drain of a 150-port instance.
	rng := rand.New(rand.NewSource(9))
	inst := workload.PoissonConfig{M: 150, T: 10, Ports: 150}.Generate(rng)
	pol := PolicyByName("MaxCard")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(inst, pol); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateSRPTBound(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	inst := workload.PoissonConfig{M: 300, T: 20, Ports: 150}.Generate(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SRPTLowerBound(inst)
	}
}

func BenchmarkSubstrateIterativeRound(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	inst := workload.PoissonConfig{M: 4, T: 6, Ports: 5}.Generate(rng)
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
