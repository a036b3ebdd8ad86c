package stream

import (
	"context"
	"fmt"
	"slices"

	"flowsched/internal/stats"
	"flowsched/internal/switchnet"
)

// This file is the runtime's durability and live-reconfiguration surface:
// quiescent-point checkpoint capture, restore, and policy / admission
// reload. Everything here rides the coordinator's quiescent-
// point mailbox — one non-blocking select at the top of each step — so
// the steady-state round loop pays nothing for any of it (see the package
// docs, "Durability and reload").

// CheckpointState is a quiescent snapshot of everything a restart needs
// to continue the run as if it had never stopped: the pending set with
// original releases, the round, and the exact cumulative counters. The
// coordinator captures it between rounds, when every pick has retired, so
// the summary always balances
// (Admitted == Completed + Pending + Dropped + Expired) and no flow is
// both "completed" and "pending".
type CheckpointState struct {
	// Round is the round the snapshot is consistent at: every flow in
	// Flows was released at or before it, and a restored runtime resumes
	// at exactly this round.
	Round int
	// Pending is the number of leading Flows entries that are resident
	// pending flows; it always equals Summary.Pending.
	Pending int
	// Flows holds the pending set in admission order (original releases
	// preserved — admission order follows source order, so releases are
	// non-decreasing along it), plus at most one trailing flow the
	// coordinator had fetched from the source while idle but not yet
	// admitted (the lookahead). The lookahead is part of the unconsumed
	// stream, not the pending set: a restored runtime holds it as the next
	// flow to admit, and it is the only consumed-but-unadmitted flow that
	// can exist at a quiescent point.
	Flows []switchnet.Flow
	// Summary is the exact metrics summary at the snapshot point.
	Summary Summary
	// Policy names the scheduling policy the snapshot was captured under;
	// Scratch holds its instances' scratch state (rotation pointers, one
	// slice per instance in scope order — see scratchPolicy), nil for
	// memoryless policies. A restore replays the scratch only when it
	// resumes the same policy at the same shard count, which is what
	// makes RoundRobin and WeightedISLIP restore-exact.
	Policy  string
	Scratch [][]int64
	// Windows holds the sliding-window quantile sketch, so response
	// quantiles are continuous across a restore instead of restarting
	// empty. A capture writes one snapshot; images from before the runtime
	// kept a single window carry one per shard, and a restore merges
	// every entry.
	Windows []stats.WindowSnapshot
}

// SourceFlows reports how many flows the runtime had consumed from its
// source at the snapshot point — Summary.Admitted plus the lookahead, if
// one is present. A deterministic or replayable source resumed after a
// restore must skip exactly this many flows (workload.Skip), because the
// checkpoint itself carries the pending ones and the lookahead.
func (st *CheckpointState) SourceFlows() int64 {
	return st.Summary.Admitted + int64(len(st.Flows)-st.Pending)
}

// restore validates st (see Config.Resume) and makes the runtime its
// continuation: the clock opens at st.Round, the cumulative counters
// continue from st.Summary, the pending set is threaded back into the
// store with its original releases — in checkpointed order, numbered
// afresh from sequence number 0 (a checkpoint carries no sequence
// numbers), and counted neither as admissions nor as backpressure,
// because it arrived in the previous run — and a trailing
// lookahead becomes the held flow idle would have left.
// Called once, at the end of New.
func (rt *Runtime) restore(st *CheckpointState) error {
	c := st.Summary
	if st.Round < 0 {
		return fmt.Errorf("stream: resume round %d is negative", st.Round)
	}
	if st.Pending < 0 {
		return fmt.Errorf("stream: resume pending count %d is negative", st.Pending)
	}
	if st.Pending > rt.cfg.MaxPending {
		return fmt.Errorf("stream: resume pending count %d exceeds MaxPending %d (restore must not shed checkpointed flows)",
			st.Pending, rt.cfg.MaxPending)
	}
	if n := len(st.Flows); n < st.Pending || n > st.Pending+1 {
		return fmt.Errorf("stream: resume carries %d flows for %d pending (at most one lookahead)", n, st.Pending)
	}
	for _, v := range []int64{c.Admitted, c.Completed, c.Dropped, c.Expired, c.Backpressured,
		c.TotalResponse, c.SlowResponses, c.Rounds, int64(c.MaxResponse), int64(c.PeakPending)} {
		if v < 0 {
			return fmt.Errorf("stream: resume counters contain a negative value: %+v", c)
		}
	}
	if c.Admitted != c.Completed+int64(st.Pending)+c.Dropped+c.Expired {
		return fmt.Errorf("stream: resume counters do not balance: admitted %d != completed %d + pending %d + dropped %d + expired %d",
			c.Admitted, c.Completed, st.Pending, c.Dropped, c.Expired)
	}
	rt.round = st.Round
	rt.vstart = st.Round
	for i, f := range st.Flows {
		if f.Release > st.Round {
			return fmt.Errorf("stream: resume flow %d released at %d, after the resume round %d", i, f.Release, st.Round)
		}
		var err error
		if i < st.Pending {
			_, err = rt.route(&f)
		} else if err = rt.checkFlow(&f); err == nil {
			rt.look, rt.haveLook = f, true
		}
		if err != nil {
			return fmt.Errorf("stream: resume flow %d: %w", i, err)
		}
	}
	rt.peak = max(c.PeakPending, rt.count)
	rt.mRound.Store(int64(st.Round))
	rt.mRounds.Store(c.Rounds)
	rt.mAdmitted.Store(c.Admitted)
	rt.mBackpressured.Store(c.Backpressured)
	rt.mDropped.Store(c.Dropped)
	rt.mPeak.Store(int64(rt.peak))
	rt.mCompleted.Store(c.Completed)
	rt.mExpired.Store(c.Expired)
	rt.mTotalResp.Store(c.TotalResponse)
	rt.mMaxResp.Store(int64(c.MaxResponse))
	rt.mSlowResp.Store(c.SlowResponses)
	// Policy scratch: replay only on an exact (policy, shard count) match
	// onto instances that carry scratch — anything else means the
	// operator overrode the configuration at restore, and fresh rotation
	// pointers are the correct fallback.
	if pols := rt.instances(); len(st.Scratch) == len(pols) && st.Policy == rt.cfg.Policy.Name() {
		if _, ok := pols[0].(scratchPolicy); ok {
			for s, p := range pols {
				if err := p.(scratchPolicy).importScratch(st.Scratch[s]); err != nil {
					return fmt.Errorf("stream: resume policy scratch (shard %d): %w", s, err)
				}
			}
		}
	}
	for i := range st.Windows {
		rt.win.Import(&st.Windows[i])
	}
	return nil
}

// ReloadConfig is a live policy/admission swap applied between rounds
// without dropping the pending set (see Runtime.Reload). All fields are
// required — a caller keeping a setting passes its current value.
type ReloadConfig struct {
	// Policy replaces the scheduling policy; with Shards > 1 it must
	// implement Shardable (the runtime picks through its NewShard
	// instances, each Reset, so none carries a layout over).
	Policy Policy
	// MaxPending replaces the admission limit. Shrinking it below the
	// resident count is allowed: nothing is shed, admission just stays
	// closed (or sheds arrivals, under AdmitDrop) until the backlog
	// drains below the new limit.
	MaxPending int
	// Admit and Deadline replace the admission mode, under the same
	// validity rules as Config.
	Admit    AdmitMode
	Deadline int
}

// applyReload validates rc and swaps the policy and admission settings at
// the quiescent point: every pick has retired, so no flow is mid-flight
// through the old policy's scratch state. A reload after the run is
// meaningless and reports an error.
func (rt *Runtime) applyReload(rc ReloadConfig) error {
	select {
	case <-rt.finished:
		return fmt.Errorf("stream: reload: runtime already finished")
	default:
	}
	if rc.Policy == nil {
		return fmt.Errorf("stream: reload: nil policy")
	}
	if rc.MaxPending <= 0 {
		return fmt.Errorf("stream: reload: MaxPending %d is not positive", rc.MaxPending)
	}
	if err := validateAdmit(rc.Admit, rc.Deadline); err != nil {
		return fmt.Errorf("stream: reload: %w", err)
	}
	if err := rt.installPolicy(rc.Policy); err != nil {
		return fmt.Errorf("stream: reload: %w", err)
	}
	rt.cfg.MaxPending = rc.MaxPending
	rt.reserveRound()
	rt.cfg.Admit = rc.Admit
	rt.cfg.Deadline = rc.Deadline
	rt.stalled = 0
	return nil
}

// serveCtl runs at most one queued mailbox closure per step. It runs at
// the top of step, when the pending store is quiescent and the previous
// round's picks have retired, so a captured summary is exact. The idle
// check is one non-blocking channel poll — no clock, no allocation.
func (rt *Runtime) serveCtl() {
	select {
	case fn := <-rt.ctl:
		fn()
	default:
	}
}

// quiesce runs fn against quiescent runtime state and returns once it
// has: directly on the caller before Run has started (New leaves the
// state whole, restored backlog included), on the coordinator between
// rounds while Run is live (an idle Park is woken for it), or directly
// on the caller once Run has returned (best-effort if the run failed
// mid-round: picks the error abandoned may still be linked). A ctx
// already done runs nothing; when ctx ends first fn may still run later,
// so it must not write anything its caller reads after an error.
func (rt *Runtime) quiesce(ctx context.Context, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	rt.runMu.Lock()
	if !rt.running {
		// Holding runMu keeps Run from starting under fn.
		defer rt.runMu.Unlock()
		fn()
		return nil
	}
	rt.runMu.Unlock()
	ran := make(chan struct{})
	select {
	case rt.ctl <- func() { fn(); close(ran) }:
		rt.nudge()
	case <-rt.finished:
		fn()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-ran:
	case <-rt.finished:
		// The coordinator runs a closure the moment it takes it, so either
		// it ran before Run returned or it never will.
		select {
		case <-ran:
		default:
			fn()
		}
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// nudge interrupts an idle Park so a queued closure (or a Stop) is
// noticed while the feed is quiet. Buffered and lossy: one pending wake
// is enough, extras coalesce.
func (rt *Runtime) nudge() {
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// capture builds the CheckpointState of the quiescent runtime, appending
// the flows to dst[:0], grown once to hold them. Everything else it
// returns is freshly allocated, so the state shares nothing with the
// runtime but dst.
func (rt *Runtime) capture(dst []switchnet.Flow) CheckpointState {
	n := rt.count
	if rt.haveLook {
		n++
	}
	flows := rt.collectPending(slices.Grow(dst[:0], n))
	pending := len(flows)
	if rt.haveLook {
		flows = append(flows, rt.look)
	}
	return CheckpointState{
		Round:   rt.round,
		Pending: pending,
		Flows:   flows,
		Summary: rt.Snapshot(),
		Policy:  rt.cfg.Policy.Name(),
		Scratch: rt.collectScratch(),
		Windows: []stats.WindowSnapshot{rt.win.Export()},
	}
}

// collectScratch captures each policy instance's scratch state (see
// scratchPolicy) into fresh slices; nil when the policy carries no
// scratch.
func (rt *Runtime) collectScratch() [][]int64 {
	pols := rt.instances()
	if _, ok := pols[0].(scratchPolicy); !ok {
		return nil
	}
	scratch := make([][]int64, len(pols))
	for s, p := range pols {
		scratch[s] = p.(scratchPolicy).exportScratch()
	}
	return scratch
}

// collectPending appends every resident pending flow to dst in admission
// order, the order the source delivered them. Releases are non-decreasing
// along it, so a restore can re-admit the flows in order under the stream
// contract. Checkpoints and PendingFlows both use it, so they agree. The
// caller must hold the state quiescent: the coordinator between rounds,
// or any goroutine after Run has returned.
func (rt *Runtime) collectPending(dst []switchnet.Flow) []switchnet.Flow {
	for id := rt.head; id != noID; id = rt.ar.rec[id].next {
		dst = append(dst, rt.ar.flow(id))
	}
	return dst
}

// fireCheckpoint services the round-cadence periodic trigger (see
// Config.CheckpointEveryRounds): it hands OnCheckpoint a fresh capture,
// which the callback owns.
func (rt *Runtime) fireCheckpoint() {
	st := rt.capture(nil)
	rt.cfg.OnCheckpoint(&st)
	rt.nextCkpt = rt.round + rt.cfg.CheckpointEveryRounds
}

// PendingFlows snapshots the resident pending set without stalling the
// round loop: the coordinator collects it between rounds (every pick
// retired, so the snapshot never contains an already-scheduled flow) into
// dst[:0] in global admission order, the order a checkpoint stores, along
// with the round the snapshot is consistent at. Before Run has started or
// after it has returned the quiescent state is read directly. A runtime
// parked idle on a Parker source is woken to answer. dst is reused across
// calls by design; the returned slice aliases it.
func (rt *Runtime) PendingFlows(ctx context.Context, dst []switchnet.Flow) ([]switchnet.Flow, int, error) {
	var flows []switchnet.Flow
	var round int
	if err := rt.quiesce(ctx, func() { flows, round = rt.collectPending(dst[:0]), rt.round }); err != nil {
		return dst[:0], 0, err
	}
	return flows, round, nil
}

// CheckpointState snapshots everything a restart needs — the pending set
// with original releases (plus the un-admitted lookahead, if the
// coordinator holds one), the round, and an exact balanced Summary — at
// a quiescent point between rounds, without stalling the round loop. The
// flows are appended to dst[:0]; the returned state aliases it. See
// PendingFlows for the service semantics; internal/chkpt serializes the
// result.
func (rt *Runtime) CheckpointState(ctx context.Context, dst []switchnet.Flow) (CheckpointState, error) {
	var st CheckpointState
	if err := rt.quiesce(ctx, func() { st = rt.capture(dst) }); err != nil {
		return CheckpointState{}, err
	}
	return st, nil
}

// Reload swaps the scheduling policy and admission settings between
// rounds without dropping the pending set: the coordinator applies rc at
// the next quiescent point (every pick retired, the store consistent),
// the policy's instances are rebuilt and Reset, and the very next
// round schedules under the new configuration. Pending flows keep their
// original releases, so response accounting is unaffected. Returns the
// validation error, if any, without changing anything; it cannot be
// called after Run has returned.
func (rt *Runtime) Reload(ctx context.Context, rc ReloadConfig) error {
	var err error
	if qerr := rt.quiesce(ctx, func() { err = rt.applyReload(rc) }); qerr != nil {
		return qerr
	}
	return err
}
