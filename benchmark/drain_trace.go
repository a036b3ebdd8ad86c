package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"flowsched"
	"flowsched/internal/chkpt"
)

// tracedDrain is one drain with the recorder attached and the decorators
// in place.
type tracedDrain struct {
	tr     *tracer
	src    *tracedSource
	recs   []flowsched.RoundRecord
	sum    *flowsched.StreamSummary
	wall   float64   // seconds, Run alone
	snapNS []float64 // Snapshot() call times from the side goroutine
}

// traceDrain drains inst under cfg with a flight recorder sized for
// rounds records, the source decorator, the policy decorator (K == 1
// only: see tracedPolicy) and a side goroutine calling Snapshot at 100 Hz.
func traceDrain(id string, inst *flowsched.Instance, cfg flowsched.StreamConfig, rounds int) (*tracedDrain, error) {
	d := &tracedDrain{tr: newTracer(id)}
	root := d.tr.begin("run", noParent)
	d.src = &tracedSource{inner: flowsched.NewInstanceSource(inst), t: d.tr, parent: root}
	var pol *tracedPolicy
	if cfg.Shards == 1 {
		pol = &tracedPolicy{inner: cfg.Policy, t: d.tr, parent: root}
		cfg.Policy = pol
	}
	rec := flowsched.NewFlightRecorder(rounds + 1)
	cfg.Recorder = rec
	rt, err := flowsched.NewStreamRuntime(d.src, cfg)
	if err != nil {
		return nil, err
	}

	stop := make(chan struct{})
	var side sync.WaitGroup
	side.Add(1)
	go func() {
		defer side.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				start := time.Now()
				rt.Snapshot()
				d.snapNS = append(d.snapNS, float64(time.Since(start).Nanoseconds()))
			}
		}
	}()

	d.tr.spans[root].start = d.tr.now() // construction is set-up, not run
	d.sum, err = rt.Run()
	d.tr.finish(root)
	close(stop)
	side.Wait()
	if err != nil {
		return nil, err
	}
	d.wall = float64(d.tr.spans[root].end-d.tr.spans[root].start) / 1e9
	d.recs = rec.Last(nil, int(rec.Written()))
	var picks []int32
	if pol != nil {
		picks = pol.picks
	}
	d.tr.addRounds(root, d.recs, picks)
	return d, nil
}

// drainTraced is the per-layer run of an in-process drain workload:
// untraced and traced drains alternate in one process, so the layer
// numbers, the tracing overhead and the exact-schedule check all come
// from the same heap and the same minute of the box.
func (r *run) drainTraced() error {
	w, cfg := r.w, r.w.streamConfig()
	in := r.prepare()
	n := in.inst.N()

	var construct []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if _, err := flowsched.NewStreamRuntime(flowsched.NewInstanceSource(in.warm), cfg); err != nil {
			return err
		}
		construct = append(construct, float64(time.Since(start).Nanoseconds())/1e6)
	}
	r.set("stream.construct_ms", median(construct))
	if _, _, err := drain(in.warm, cfg); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	// Most of the budget alternates untraced and traced drains; the rest
	// goes to the workload's own extras below.
	var (
		plain  []sample
		traced []float64
		base   *flowsched.StreamSummary
		last   *tracedDrain
	)
	budget := r.opt.seconds * 0.6
	for start := time.Now(); len(plain) == 0 || time.Since(start).Seconds() < budget; {
		sum, cost, err := drain(in.inst, cfg)
		if err != nil {
			return fmt.Errorf("untraced drain: %w", err)
		}
		r.checkSummary("untraced drain", sum, n, cfg)
		plain, base = append(plain, cost), sum
		d, err := traceDrain(w.name, in.inst, cfg, int(sum.Rounds))
		if err != nil {
			return fmt.Errorf("traced drain: %w", err)
		}
		r.checkSummary("traced drain", d.sum, n, cfg)
		// A traced run that schedules differently measured another program.
		r.check(scheduleOf(d.sum) == scheduleOf(sum), "tracing changed the schedule: %+v vs %+v", scheduleOf(d.sum), scheduleOf(sum))
		r.check(len(d.recs) == int(sum.Rounds), "recorder holds %d records for %d rounds", len(d.recs), sum.Rounds)
		traced, last = append(traced, d.wall), d
	}
	r.streamLayers(in.inst, base, plain, traced, last)
	if err := last.tr.write(r.opt.outDir); err != nil {
		return err
	}
	last.tr.printLayers(r.opt.log)

	extra := r.opt.seconds - budget
	switch {
	case w.verifyEvery > 0:
		return r.verifyLayers(in, cfg, plain, extra)
	case w.shards > 1:
		return r.shardLayers(in, cfg, plain, extra)
	case w.skew != nil:
		return r.policyQuality(in)
	case w.name == "drain_deep":
		return r.checkpointLayers(in, cfg)
	}
	return nil
}

// streamLayers fills the workload.* and stream.* metrics from the last
// traced drain, and the tracing overhead from the alternated walls.
func (r *run) streamLayers(inst *flowsched.Instance, base *flowsched.StreamSummary, plain []sample, traced []float64, d *tracedDrain) {
	rounds := float64(len(d.recs))
	if rounds == 0 {
		return
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 / rounds }
	var roundUS, pending []float64
	var propose, reconcile, apply, verify int64
	for _, rec := range d.recs {
		propose, reconcile, apply, verify = propose+rec.ProposeNS, reconcile+rec.ReconcileNS, apply+rec.ApplyNS, verify+rec.VerifyNS
		roundUS = append(roundUS, float64(rec.ProposeNS+rec.ReconcileNS+rec.ApplyNS+rec.VerifyNS)/1e3)
		pending = append(pending, float64(rec.Pending))
	}
	r.set("stream.round_us_p50", median(roundUS))
	r.set("stream.round_us_p99", quantile(roundUS, 0.99))
	r.set("stream.propose_us_mean", us(propose))
	r.set("stream.reconcile_us_mean", us(reconcile))
	r.set("stream.apply_us_mean", us(apply))
	r.set("stream.verify_join_us_mean", us(verify))
	if pick, count := d.tr.selfTime("stream.pick"); count > 0 {
		r.set("stream.pick_us_mean", us(pick))
		admitRetire, _ := d.tr.selfTime("stream.propose")
		r.set("stream.admit_retire_us_mean", us(admitRetire))
	}
	other, _ := d.tr.selfTime("run")
	r.set("stream.coordinator_other_us_mean", us(other))
	pull, _ := d.tr.selfTime("workload.pull")
	r.set("workload.pull_ns_per_flow", float64(pull)/float64(d.src.flows))
	r.set("workload.pull_batch_mean", float64(d.src.flows)/float64(d.src.calls))
	r.set("workload.pull_calls", float64(d.src.calls))

	r.set("stream.rounds", rounds)
	r.set("stream.flows_per_round", float64(base.Completed)/rounds)
	r.set("stream.port_utilisation", float64(inst.TotalDemand())/(rounds*float64(r.w.ports*r.w.cap)))
	r.set("stream.pending_mean", mean(pending))
	r.set("stream.peak_pending", float64(base.PeakPending))
	r.set("stream.backpressured_share", float64(base.Backpressured)/float64(base.Admitted))
	r.set("stream.allocs_per_round", median(column(plain, func(s sample) float64 { return s.mallocs }))/rounds)
	r.set("stream.alloc_bytes_per_round", median(column(plain, func(s sample) float64 { return s.bytes }))/rounds)
	r.set("stream.snapshot_ns_p50", median(d.snapNS))
	r.set("verify.windows", float64(base.WindowsVerified))

	untraced := median(column(plain, func(s sample) float64 { return s.wall }))
	r.set("obs.recorder_overhead_pct", 100*(median(traced)/untraced-1))
	rec := flowsched.NewFlightRecorder(4096)
	for _, x := range d.recs[:min(len(d.recs), 4096)] {
		rec.Record(x)
	}
	start := time.Now()
	_, err := rec.WriteJSONL(io.Discard, 4096)
	r.set("obs.trace_export_ms", float64(time.Since(start).Nanoseconds())/1e6)
	r.check(err == nil, "WriteJSONL: %v", err)

	r.logf("%s: traced wall %.3f s over %d rounds; measured layers cover %.1f%%, coordinator_other the rest",
		r.w.name, d.wall, len(d.recs), 100*(1-float64(other)/(d.wall*1e9)))
}

// alternate runs a and b in turn for about seconds (each at least once)
// and returns their costs.
func alternate(seconds float64, a, b func() (sample, error)) (as, bs []sample, err error) {
	for start := time.Now(); len(as) == 0 || time.Since(start).Seconds() < seconds; {
		sa, err := a()
		if err != nil {
			return nil, nil, err
		}
		sb, err := b()
		if err != nil {
			return nil, nil, err
		}
		as, bs = append(as, sa), append(bs, sb)
	}
	return as, bs, nil
}

// drainCost returns a closure draining inst under cfg for alternate.
func drainCost(inst *flowsched.Instance, cfg flowsched.StreamConfig) func() (sample, error) {
	return func() (sample, error) {
		_, cost, err := drain(inst, cfg)
		return cost, err
	}
}

// verifyLayers prices windowed verification on drain_verified: the same
// drain with the verifier on and off, alternated, and the oracle timed
// directly on one window rebuilt from OnSchedule.
func (r *run) verifyLayers(in prepared, cfg flowsched.StreamConfig, on []sample, seconds float64) error {
	off := cfg
	off.VerifyEvery = 0
	more, offs, err := alternate(seconds, drainCost(in.inst, cfg), drainCost(in.inst, off))
	if err != nil {
		return err
	}
	on = append(on, more...)
	n := float64(in.inst.N())
	rounds := r.values["stream.rounds"]
	cpu := func(ss []sample) float64 { return median(column(ss, func(s sample) float64 { return s.cpu })) }
	bytes := func(ss []sample) float64 { return median(column(ss, func(s sample) float64 { return s.bytes })) }
	r.set("verify.cpu_us_per_flow", 1e6*(cpu(on)-cpu(offs))/n)
	r.set("verify.alloc_bytes_per_round", (bytes(on)-bytes(offs))/rounds)

	// One window, the way the runtime builds it: the flows scheduled in
	// verifyEvery consecutive rounds, checked against the port capacities.
	lo := 4 * cfg.VerifyEvery
	window := &flowsched.Instance{Switch: cfg.Switch}
	sched := &flowsched.Schedule{}
	capture := off
	capture.OnSchedule = func(_ int64, f flowsched.Flow, round int) {
		if round >= lo && round < lo+cfg.VerifyEvery {
			window.Flows = append(window.Flows, f)
			sched.Round = append(sched.Round, round)
		}
	}
	if _, _, err := drain(in.prefix, capture); err != nil {
		return err
	}
	if len(window.Flows) == 0 {
		return nil // a scaled-down run shorter than five windows
	}
	start := time.Now()
	_, err = flowsched.CheckSchedule(window, sched, cfg.Switch.Caps())
	r.set("verify.check_ns_per_flow", float64(time.Since(start).Nanoseconds())/float64(len(window.Flows)))
	r.check(err == nil, "oracle rejects a rebuilt window: %v", err)
	return nil
}

// shardLayers measures what sharding buys on drain_age_k2: the same flows
// at Shards=2 and Shards=1, alternated in one process.
func (r *run) shardLayers(in prepared, cfg flowsched.StreamConfig, k2 []sample, seconds float64) error {
	one := cfg
	one.Shards = 1
	more, k1, err := alternate(seconds, drainCost(in.inst, cfg), drainCost(in.inst, one))
	if err != nil {
		return err
	}
	k2 = append(k2, more...)
	wall := func(ss []sample) float64 { return median(column(ss, func(s sample) float64 { return s.wall })) }
	cpu := func(ss []sample) float64 { return median(column(ss, func(s sample) float64 { return s.cpu })) }
	r.set("stream.k2_speedup", wall(k1)/wall(k2)) // base: Shards=1 on the same flows
	r.set("stream.k2_cpu_ratio", cpu(k2)/cpu(k1))
	return nil
}

// policyQuality scores all four native policies on the steady_skew
// Q-prefix: response times against the lower bounds, beside their speed.
func (r *run) policyQuality(in prepared) error {
	lb := boundsOf(in.prefix)
	for _, name := range streamPolicies {
		cfg := r.w.streamConfig()
		cfg.Policy = flowsched.StreamPolicyByName(name)
		if cfg.Policy == nil {
			return fmt.Errorf("no native policy %q", name)
		}
		sum, art, mrt, cost, err := r.score(name+" quality drain", in.prefix, cfg, lb)
		if err != nil {
			return err
		}
		r.setQuality("quality."+name+".", sum.AvgResponse, sum.MaxResponse, art, mrt)
		r.set("quality."+name+".flows_per_s", float64(in.prefix.N())/cost.wall)
	}
	return nil
}

// checkpointLayers captures one checkpoint from a side goroutine at a full
// backlog of an unwrapped drain_deep run, then prices the codec.
func (r *run) checkpointLayers(in prepared, cfg flowsched.StreamConfig) error {
	rt, err := flowsched.NewStreamRuntime(flowsched.NewInstanceSource(in.inst), cfg)
	if err != nil {
		return err
	}
	var (
		state   flowsched.StreamCheckpointState
		capture time.Duration
		capErr  error
		side    sync.WaitGroup
	)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	done := make(chan struct{})
	side.Add(1)
	go func() {
		defer side.Done()
		// A full backlog reads between MaxPending and one round below it.
		for rt.Snapshot().Pending < cfg.MaxPending*3/4 {
			select {
			case <-done:
				capErr = errors.New("the backlog never filled")
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
		start := time.Now()
		state, capErr = rt.CheckpointState(ctx, nil)
		capture = time.Since(start)
	}()
	sum, err := rt.Run()
	close(done)
	side.Wait()
	if err != nil {
		return err
	}
	r.checkSummary("checkpointed drain", sum, in.inst.N(), cfg)
	if capErr != nil {
		r.logf("%s: no checkpoint captured: %v", r.w.name, capErr)
		return nil // a scaled-down run can finish before the backlog fills
	}
	r.set("chkpt.capture_ms", float64(capture.Nanoseconds())/1e6)
	start := time.Now()
	data, err := chkpt.Encode(chkpt.FromState(&state, cfg))
	if err != nil {
		return err
	}
	r.set("chkpt.encode_ms", float64(time.Since(start).Nanoseconds())/1e6)
	start = time.Now()
	back, err := chkpt.Decode(data)
	if err != nil {
		return err
	}
	r.set("chkpt.decode_ms", float64(time.Since(start).Nanoseconds())/1e6)
	r.check(back.Pending == state.Pending && len(back.Flows) == len(state.Flows), "checkpoint does not round-trip: %d/%d pending", back.Pending, state.Pending)
	r.set("chkpt.bytes_per_flow", float64(len(data))/float64(max(state.Pending, 1)))
	return nil
}
