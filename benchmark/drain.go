package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"flowsched"
	"flowsched/internal/core"
)

// setupRepeats is how many times an in-process run sets up; setup_s is
// their median, so one slow page-fault storm does not decide it.
const setupRepeats = 9

// generate draws the workload's flows for one repeat from the seed.
func (w *workload) generate(seed int64, n int) []flowsched.Flow {
	rng := rand.New(rand.NewSource(seed))
	if w.skew != nil {
		return genSkew(rng, n, *w.skew)
	}
	return genUnitPoisson(rng, n, w.ports, w.arrivals)
}

func (w *workload) fabric() flowsched.Switch { return flowsched.NewSwitch(w.ports, w.ports, w.cap) }

// streamConfig is the workload's runtime configuration. Shards is always
// pinned: the host-dependent default would make the schedule a function
// of the machine.
func (w *workload) streamConfig() flowsched.StreamConfig {
	return flowsched.StreamConfig{
		Switch:      w.fabric(),
		Policy:      flowsched.StreamPolicyByName(w.policy),
		Shards:      w.shards,
		MaxPending:  w.maxPending,
		VerifyEvery: w.verifyEvery,
	}
}

// schedule is the part of a Summary that is a function of config and
// input alone; two drains of the same flows must agree on all of it.
type schedule struct {
	Rounds, Completed, TotalResponse, Backpressured int64
	MaxResponse, PeakPending                        int
}

func scheduleOf(s *flowsched.StreamSummary) schedule {
	return schedule{
		Rounds: s.Rounds, Completed: s.Completed, TotalResponse: s.TotalResponse,
		Backpressured: s.Backpressured, MaxResponse: s.MaxResponse, PeakPending: s.PeakPending,
	}
}

// drain replays inst through a fresh runtime under cfg and returns the
// final summary with what Run alone cost (construction is set-up), plus
// the bytes construction allocated: alloc_bytes_per_flow counts both —
// everything the program allocates to drain these flows — so memory moved
// out of the round loop into New still shows, and a steady-state drain
// that allocates next to nothing still reports a number that repeats.
func drain(inst *flowsched.Instance, cfg flowsched.StreamConfig) (*flowsched.StreamSummary, sample, error) {
	src := flowsched.NewInstanceSource(inst)
	var (
		rt  *flowsched.StreamRuntime
		sum *flowsched.StreamSummary
		err error
	)
	build := measure(func() { rt, err = flowsched.NewStreamRuntime(src, cfg) })
	if err != nil {
		return nil, sample{}, err
	}
	cost := measure(func() { sum, err = rt.Run() })
	cost.buildBytes = build.bytes
	return sum, cost, err
}

// checkSummary applies the per-drain output checks and counts the drain's
// flows as attempted operations.
func (r *run) checkSummary(what string, s *flowsched.StreamSummary, flows int, cfg flowsched.StreamConfig) {
	r.attempted += int64(flows)
	if missing := flows - int(s.Completed); missing > 0 {
		r.fail(missing, "%s: %d of %d flows not completed", what, missing, flows)
	}
	r.check(s.Completed <= int64(flows), "%s: completed %d of only %d flows", what, s.Completed, flows)
	r.check(s.Admitted == s.Completed+int64(s.Pending)+s.Dropped+s.Expired,
		"%s: accounting does not balance: admitted %d != completed %d + pending %d + dropped %d + expired %d",
		what, s.Admitted, s.Completed, s.Pending, s.Dropped, s.Expired)
	r.check(s.PeakPending <= cfg.MaxPending, "%s: peak pending %d above MaxPending %d", what, s.PeakPending, cfg.MaxPending)
	r.check(s.Shards == cfg.Shards, "%s: ran on %d shards, configured %d", what, s.Shards, cfg.Shards)
	if cfg.VerifyEvery > 0 {
		r.check(s.WindowsVerified > 0, "%s: no verification window was checked", what)
	}
}

// prepared is a drain workload's generated input.
type prepared struct {
	inst, warm, prefix *flowsched.Instance
}

func (r *run) prepare() prepared {
	w := r.w
	n := max(w.flows/r.opt.scale, 1)
	start := time.Now()
	flows := w.generate(r.opt.seed, n)
	r.set("bench.generate_s", time.Since(start).Seconds())
	sw := w.fabric()
	return prepared{
		inst:   &flowsched.Instance{Switch: sw, Flows: flows},
		warm:   &flowsched.Instance{Switch: sw, Flows: flows[:min(max(warmFlows/r.opt.scale, 1), n)]},
		prefix: &flowsched.Instance{Switch: sw, Flows: flows[:min(max(w.quality/r.opt.scale, 1), n)]},
	}
}

// lowerBounds are the combinatorial bounds a Q-prefix's schedule is scored
// against. Both are superlinear in the flow count, which is why they see a
// prefix only and run outside every clock.
type lowerBounds struct{ art, mrt int }

func boundsOf(prefix *flowsched.Instance) lowerBounds {
	return lowerBounds{art: flowsched.SRPTLowerBound(prefix), mrt: core.TrivialMRTLowerBound(prefix)}
}

// score drains the Q-prefix under cfg, untimed, checks the drain, and
// returns the schedule's total and max response over the bounds.
func (r *run) score(what string, prefix *flowsched.Instance, cfg flowsched.StreamConfig, lb lowerBounds) (sum *flowsched.StreamSummary, art, mrt float64, cost sample, err error) {
	sum, cost, err = drain(prefix, cfg)
	if err != nil {
		return nil, 0, 0, cost, fmt.Errorf("%s: %w", what, err)
	}
	r.checkSummary(what, sum, prefix.N(), cfg)
	art, mrt = float64(sum.TotalResponse)/float64(lb.art), float64(sum.MaxResponse)/float64(lb.mrt)
	r.check(art >= 1 && mrt >= 1, "%s beats its lower bounds: art_vs_lb %v mrt_vs_lb %v", what, art, mrt)
	return sum, art, mrt, cost, nil
}

// setQuality fills the four schedule-quality metrics under prefix
// ("" for the gated ones).
func (r *run) setQuality(prefix string, avg float64, maxResponse int, art, mrt float64) {
	r.set(prefix+"avg_response_rounds", avg)
	r.set(prefix+"max_response_rounds", float64(maxResponse))
	r.set(prefix+"art_vs_lb", art)
	r.set(prefix+"mrt_vs_lb", mrt)
}

// drainEndToEnd is the untraced run of an in-process drain workload: no
// recorder, no decorators.
func (r *run) drainEndToEnd() error {
	w, cfg := r.w, r.w.streamConfig()
	in := r.prepare()
	n := in.inst.N()

	// Set-up: construct a runtime and drain the warm-up prefix on it.
	var setups []sample
	r.ref.pass()
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		sum, _, err := drain(in.warm, cfg)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, r.ref.since(start))
		r.checkSummary("warm-up", sum, in.warm.N(), cfg)
	}
	r.setSetup(setups)

	qsum, art, mrt, _, err := r.score("quality drain", in.prefix, cfg, boundsOf(in.prefix))
	if err != nil {
		return err
	}

	if w.verifyEvery > 0 {
		// Verification must not change the schedule: the same flows with
		// the verifier off drain to the identical summary.
		off := cfg
		off.VerifyEvery = 0
		plain, _, err := drain(in.prefix, off)
		if err != nil {
			return fmt.Errorf("verify-off drain: %w", err)
		}
		r.check(scheduleOf(plain) == scheduleOf(qsum), "verify on and off schedule differently: %+v vs %+v", scheduleOf(qsum), scheduleOf(plain))
	}

	runtime.GC()
	var reps []sample
	var first schedule
	r.ref.pass()
	for start := time.Now(); r.measuring(start, len(reps)); {
		sum, cost, err := drain(in.inst, cfg)
		if err != nil {
			return fmt.Errorf("timed drain %d: %w", len(reps), err)
		}
		r.checkSummary("timed drain", sum, n, cfg)
		if len(reps) == 0 {
			// Response times from the full timed drain, ratios from the
			// Q-prefix the bounds could afford.
			first = scheduleOf(sum)
			r.setQuality("", sum.AvgResponse, sum.MaxResponse, art, mrt)
		}
		r.check(scheduleOf(sum) == first, "repeat %d scheduled differently: %+v vs %+v", len(reps), scheduleOf(sum), first)
		reps = append(reps, r.ref.calibrated(cost))
	}
	r.setThroughput(reps, n)
	r.logf("%s: %d flows, %d rounds per repeat", w.name, n, first.Rounds)
	return nil
}
