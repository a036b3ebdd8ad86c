package stream

import (
	"context"
	"fmt"

	"flowsched/internal/stats"
	"flowsched/internal/switchnet"
)

// This file is the runtime's durability and live-reconfiguration surface:
// quiescent-point checkpoint capture, restore baselines, and policy /
// admission reload. Everything here rides the coordinator's quiescent-
// point mailbox — one non-blocking select at the top of each step — so
// the steady-state round loop pays nothing for any of it (see the package
// docs, "Durability and reload").

// CheckpointState is a quiescent snapshot of everything a restart needs
// to continue the run as if it had never stopped: the pending set with
// original releases, the round, and the exact cumulative counters. The
// coordinator captures it between rounds with every owed pick settled,
// so the summary always balances
// (Admitted == Completed + Pending + Dropped + Expired) and no flow is
// both "completed" and "pending".
type CheckpointState struct {
	// Round is the round the snapshot is consistent at: every flow in
	// Flows[:Pending] was released at or before it, and a restored
	// runtime resumes at exactly this round.
	Round int
	// Pending is the number of leading Flows entries that are resident
	// pending flows; it always equals Summary.Pending.
	Pending int
	// Flows holds the pending set in admission order (original releases
	// preserved — admission order follows source order, so releases are
	// non-decreasing along it), plus at most one trailing flow the
	// coordinator had fetched from the source while idle but not yet
	// admitted (the lookahead). The lookahead is part of the unconsumed
	// stream, not the pending set: a restore replays it as the first
	// post-pending source flow, and it is the only consumed-but-unadmitted
	// flow that can exist at a quiescent point.
	Flows []switchnet.Flow
	// Summary is the exact metrics summary at the snapshot point.
	Summary Summary
	// Policy names the scheduling policy the snapshot was captured under;
	// Scratch holds its per-shard scratch state (rotation pointers, one
	// slice per shard in shard order — see scratchPolicy), nil for
	// memoryless policies. A restore replays the scratch only when it
	// resumes the same policy at the same shard count, which is what
	// makes RoundRobin and WeightedISLIP restore-exact.
	Policy  string
	Scratch [][]int64
	// Windows holds the shards' sliding-window quantile sketches (one
	// snapshot per shard in shard order), so response quantiles are
	// continuous across a restore instead of restarting empty.
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

// Resume converts the snapshot into the Config.Resume a restored runtime
// needs. The flow prefix travels separately, through the restore source
// (workload.NewCheckpointSource over Flows).
func (st *CheckpointState) Resume() *Resume {
	return &Resume{
		Round:         st.Round,
		Pending:       st.Pending,
		ScratchPolicy: st.Policy,
		Scratch:       st.Scratch,
		Windows:       st.Windows,
		Counters:      st.Summary.Counters(),
	}
}

// Resume restarts a runtime from a checkpointed state: the clock opens at
// Round instead of zero, the first Pending source flows are re-admissions
// of the checkpointed pending set (they re-enter with their original
// releases and are not re-counted as admissions or backpressure), and the
// cumulative counters continue from the checkpointed baselines — so
// response times stay charged from each flow's original release and
// Admitted == Completed + Pending + Dropped + Expired holds across the
// restart as if it never happened.
type Resume struct {
	// Round is the round to resume at; it must be at least every restored
	// flow's release.
	Round int
	// Pending is the number of leading source flows that are checkpoint
	// re-admissions. It must not exceed MaxPending: a checkpoint taken
	// under a larger admission limit cannot be restored into a smaller
	// one without shedding, which a restore must never do silently.
	Pending int
	// Counters are the cumulative baselines at the checkpoint.
	Counters ResumeCounters
	// ScratchPolicy/Scratch restore policy rotation state: Scratch is
	// imported into the per-shard policy instances only when ScratchPolicy
	// matches the resumed runtime's policy name, the shard counts agree,
	// and the policy carries scratch at all — any mismatch (an explicit
	// policy or shard-count override at restore) silently resumes with
	// fresh pointers, which is a correct, merely less schedule-exact,
	// restore. A shape-matched import that still fails (corrupt values)
	// is a hard construction error.
	ScratchPolicy string
	Scratch       [][]int64
	// Windows restores the sliding-window quantile sketches; snapshots
	// are merged into shard 0's window (Snapshot merges across shards, so
	// carrying history on one shard is indistinguishable), tolerant of a
	// shard-count change. Incompatible window geometry drops them.
	Windows []stats.WindowSnapshot
}

// ResumeCounters are the checkpointed cumulative counters a restored
// runtime continues from; see the matching Summary fields for semantics.
// They must balance: Admitted == Completed + Pending + Dropped + Expired.
// The JSON tags are the checkpoint file's keys (internal/chkpt writes
// this struct as it is).
type ResumeCounters struct {
	Admitted      int64 `json:"admitted"`
	Completed     int64 `json:"completed"`
	Dropped       int64 `json:"dropped"`
	Expired       int64 `json:"expired"`
	Backpressured int64 `json:"backpressured"`
	TotalResponse int64 `json:"total_response"`
	SlowResponses int64 `json:"slow_responses"`
	Rounds        int64 `json:"rounds"`
	MaxResponse   int   `json:"max_response"`
	PeakPending   int   `json:"peak_pending"`
}

// Counters extracts the cumulative counters a restore continues from.
func (s Summary) Counters() ResumeCounters {
	return ResumeCounters{
		Admitted:      s.Admitted,
		Completed:     s.Completed,
		Dropped:       s.Dropped,
		Expired:       s.Expired,
		Backpressured: s.Backpressured,
		TotalResponse: s.TotalResponse,
		SlowResponses: s.SlowResponses,
		Rounds:        s.Rounds,
		MaxResponse:   s.MaxResponse,
		PeakPending:   s.PeakPending,
	}
}

// applyResume validates r and seeds the runtime's clock, counters, and
// re-admission budget from it. Called once, at the end of New.
func (rt *Runtime) applyResume(r *Resume) error {
	c := r.Counters
	if r.Round < 0 {
		return fmt.Errorf("stream: resume round %d is negative", r.Round)
	}
	if r.Pending < 0 {
		return fmt.Errorf("stream: resume pending count %d is negative", r.Pending)
	}
	if r.Pending > rt.cfg.MaxPending {
		return fmt.Errorf("stream: resume pending count %d exceeds MaxPending %d (restore must not shed checkpointed flows)",
			r.Pending, rt.cfg.MaxPending)
	}
	for _, v := range []int64{c.Admitted, c.Completed, c.Dropped, c.Expired, c.Backpressured,
		c.TotalResponse, c.SlowResponses, c.Rounds, int64(c.MaxResponse), int64(c.PeakPending)} {
		if v < 0 {
			return fmt.Errorf("stream: resume counters contain a negative value: %+v", c)
		}
	}
	if c.Admitted != c.Completed+int64(r.Pending)+c.Dropped+c.Expired {
		return fmt.Errorf("stream: resume counters do not balance: admitted %d != completed %d + pending %d + dropped %d + expired %d",
			c.Admitted, c.Completed, r.Pending, c.Dropped, c.Expired)
	}
	rt.round = r.Round
	rt.vstart = r.Round
	rt.restoreLeft = r.Pending
	rt.peak = c.PeakPending
	rt.mRound.Store(int64(r.Round))
	rt.mRounds.Store(c.Rounds)
	// The re-admissions will be counted again as they arrive; start the
	// admission counter short by exactly that many so the total lands back
	// on the checkpointed value.
	rt.mAdmitted.Store(c.Admitted - int64(r.Pending))
	rt.mBackpressured.Store(c.Backpressured)
	rt.mDropped.Store(c.Dropped)
	rt.mPeak.Store(int64(c.PeakPending))
	// Completion baselines live on shard 0: Snapshot sums the scalar
	// counters and maxes the response high-water mark across shards, so
	// one shard carrying the history is indistinguishable from all of
	// them.
	sh := rt.shards[0]
	sh.completed.Store(c.Completed)
	sh.expired.Store(c.Expired)
	sh.totalResp.Store(c.TotalResponse)
	sh.maxResp.Store(int64(c.MaxResponse))
	sh.slowResp.Store(c.SlowResponses)
	// Policy scratch: replay only on an exact (policy, shard count) match
	// onto shard instances that carry scratch — anything else means the
	// operator overrode the configuration at restore, and fresh rotation
	// pointers are the correct fallback.
	if len(r.Scratch) == rt.nshards && r.ScratchPolicy == rt.cfg.Policy.Name() {
		if _, ok := rt.shards[0].pol.(scratchPolicy); ok {
			for s, shd := range rt.shards {
				if err := shd.pol.(scratchPolicy).importScratch(r.Scratch[s]); err != nil {
					return fmt.Errorf("stream: resume policy scratch (shard %d): %w", s, err)
				}
			}
		}
	}
	// Window sketches: merge every checkpointed shard window into shard
	// 0's (readers merge across shards anyway), tolerating a shard-count
	// change between the checkpoint and the resume.
	for i := range r.Windows {
		sh.win.Import(&r.Windows[i])
	}
	return nil
}

// ReloadConfig is a live policy/admission swap applied between rounds
// without dropping the pending set (see Runtime.Reload). All fields are
// required — a caller keeping a setting passes its current value.
type ReloadConfig struct {
	// Policy replaces the scheduling policy; with Shards > 1 it must
	// implement Shardable (each shard gets a fresh NewShard instance).
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
// the quiescent point: owed picks are settled, so no retired flow is
// mid-flight through the old policy's scratch state. A reload after the
// run is meaningless and reports an error.
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
	rt.cfg.Admit = rc.Admit
	rt.cfg.Deadline = rc.Deadline
	rt.deadline = rc.Deadline
	rt.stalled = 0
	return nil
}

// serveCtl runs at most one queued mailbox closure per step. It runs at
// the top of step, when shard state is quiescent and the inboxes are
// empty (the previous round phase threaded them); owed picks retire
// first, so flows the previous round already scheduled are not reported
// as pending and a captured summary is exact. The idle check is one
// non-blocking channel poll — no clock, no allocation.
func (rt *Runtime) serveCtl() {
	select {
	case fn := <-rt.ctl:
		rt.applyPending()
		fn()
	default:
	}
}

// quiesce runs fn against quiescent runtime state and returns once it
// has: on the coordinator between rounds while Run is live (owed picks
// settled first; an idle Park is woken for it), or directly on the
// caller once Run has returned (best-effort if the run failed mid-round:
// picks the error abandoned may still be linked). When ctx ends first fn
// may still run later, so it must not write anything its caller reads
// after an error.
func (rt *Runtime) quiesce(ctx context.Context, fn func()) error {
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
// the flows to dst and reusing scratch and windows when their shapes
// match (see collectScratch). Explicit requests pass nil for both, so a
// reply never aliases the periodic trigger's reused buffers.
func (rt *Runtime) capture(dst []switchnet.Flow, scratch [][]int64, windows []stats.WindowSnapshot) CheckpointState {
	flows := rt.collectPendingBySeq(dst)
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
		Scratch: rt.collectScratch(scratch),
		Windows: rt.collectWindows(windows),
	}
}

// collectScratch captures each shard policy's scratch state (see
// scratchPolicy) into dst, reusing its per-shard slices when the shape
// matches; nil when the policy carries no scratch.
func (rt *Runtime) collectScratch(dst [][]int64) [][]int64 {
	if _, ok := rt.shards[0].pol.(scratchPolicy); !ok {
		return nil
	}
	if len(dst) != rt.nshards {
		dst = make([][]int64, rt.nshards)
	}
	for s, sh := range rt.shards {
		dst[s] = sh.pol.(scratchPolicy).exportScratch(dst[s][:0])
	}
	return dst
}

// collectWindows captures each shard's sliding-window sketch into dst,
// reusing its snapshots' backing slices when the shape matches. Same
// aliasing discipline as collectScratch.
func (rt *Runtime) collectWindows(dst []stats.WindowSnapshot) []stats.WindowSnapshot {
	if len(dst) != rt.nshards {
		dst = make([]stats.WindowSnapshot, rt.nshards)
	}
	for s, sh := range rt.shards {
		sh.win.ExportInto(&dst[s])
	}
	return dst
}

// collectPendingBySeq appends every resident pending flow to dst in
// global admission order — a K-way merge of the shards' admission-order
// sublists by sequence number. Checkpoints use it instead of the plain
// shard-order walk because a restore replays the flows as a source, and
// the stream contract requires globally non-decreasing releases;
// admission order guarantees that (and re-routing by input port lands
// every flow back on its original shard, in its original per-shard
// order). The merge scratch is runtime-owned and reused, so a warmed
// periodic capture allocates nothing.
func (rt *Runtime) collectPendingBySeq(dst []switchnet.Flow) []switchnet.Flow {
	if rt.nshards == 1 {
		return rt.collectPending(dst)
	}
	heads := rt.mergeHeads[:0]
	for _, sh := range rt.shards {
		heads = append(heads, sh.head)
	}
	rt.mergeHeads = heads
	for {
		best := -1
		var bestSeq int64
		for s, id := range heads {
			if id == noID {
				continue
			}
			if seq := rt.shards[s].ar.seq[id]; best < 0 || seq < bestSeq {
				best, bestSeq = s, seq
			}
		}
		if best < 0 {
			return dst
		}
		sh := rt.shards[best]
		dst = append(dst, sh.ar.flow(heads[best]))
		heads[best] = sh.ar.rec[heads[best]].next
	}
}

// fireCheckpoint services the round-cadence periodic trigger (see
// Config.CheckpointEveryRounds): it settles owed picks, captures into the
// previous capture's buffers, and hands the state to OnCheckpoint. The
// callback must not retain the state or its slices past its return — the
// next capture overwrites them.
func (rt *Runtime) fireCheckpoint() {
	rt.applyPending()
	st := &rt.ckptState
	*st = rt.capture(st.Flows[:0], st.Scratch, st.Windows)
	rt.cfg.OnCheckpoint(st)
	rt.nextCkpt = rt.round + rt.ckptEvery
}

// PendingFlows snapshots the resident pending set without stalling the
// round loop: the coordinator collects it between rounds (retiring owed
// picks first, so the snapshot never contains an already-scheduled flow)
// into dst[:0], along with the round the snapshot is consistent at.
// After Run has returned the quiescent state is read directly. A runtime
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
	if err := rt.quiesce(ctx, func() { st = rt.capture(dst[:0], nil, nil) }); err != nil {
		return CheckpointState{}, err
	}
	return st, nil
}

// Reload swaps the scheduling policy and admission settings between
// rounds without dropping the pending set: the coordinator applies rc at
// the next quiescent point (owed picks settled, shard state consistent),
// per-shard policy instances are rebuilt and Reset, and the very next
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
