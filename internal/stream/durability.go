package stream

import (
	"context"
	"fmt"

	"flowsched/internal/stats"
	"flowsched/internal/switchnet"
)

// This file is the runtime's durability and live-reconfiguration surface:
// quiescent-point checkpoint capture, restore baselines, and policy /
// admission reload. Everything here rides the coordinator's control
// mailbox — one non-blocking select at the top of each step — so the
// steady-state round loop pays nothing for any of it (see the package
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
	// coordinator had pulled from the source but not yet admitted (the
	// lookahead). The lookahead is part of the unconsumed stream, not the
	// pending set: a restore replays it as the first post-pending source
	// flow, and it is the only consumed-but-unadmitted flow that can
	// exist at a quiescent point.
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
		Counters: ResumeCounters{
			Admitted:      st.Summary.Admitted,
			Completed:     st.Summary.Completed,
			Dropped:       st.Summary.Dropped,
			Expired:       st.Summary.Expired,
			Backpressured: st.Summary.Backpressured,
			TotalResponse: st.Summary.TotalResponse,
			SlowResponses: st.Summary.SlowResponses,
			Rounds:        st.Summary.Rounds,
			MaxResponse:   st.Summary.MaxResponse,
			PeakPending:   st.Summary.PeakPending,
		},
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
type ResumeCounters struct {
	Admitted      int64
	Completed     int64
	Dropped       int64
	Expired       int64
	Backpressured int64
	TotalResponse int64
	SlowResponses int64
	Rounds        int64
	MaxResponse   int
	PeakPending   int
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
// mid-flight through the old policy's scratch state.
func (rt *Runtime) applyReload(rc ReloadConfig) error {
	if rc.Policy == nil {
		return fmt.Errorf("stream: reload: nil policy")
	}
	sharder, shardable := rc.Policy.(Shardable)
	if rt.nshards > 1 && !shardable {
		return fmt.Errorf("stream: reload: policy %q cannot run sharded (it does not implement Shardable) and the runtime has %d shards",
			rc.Policy.Name(), rt.nshards)
	}
	if rc.MaxPending <= 0 {
		return fmt.Errorf("stream: reload: MaxPending %d is not positive", rc.MaxPending)
	}
	switch rc.Admit {
	case AdmitLossless, AdmitDrop:
		if rc.Deadline != 0 {
			return fmt.Errorf("stream: reload: Deadline %d is set but Admit is %s (deadlines need AdmitDeadline)", rc.Deadline, rc.Admit)
		}
	case AdmitDeadline:
		if rc.Deadline <= 0 {
			return fmt.Errorf("stream: reload: AdmitDeadline needs a positive Deadline, got %d", rc.Deadline)
		}
	default:
		return fmt.Errorf("stream: reload: unknown admission mode %d", int(rc.Admit))
	}
	for _, sh := range rt.shards {
		pol := rc.Policy
		if rt.nshards > 1 {
			pol = sharder.NewShard()
		}
		if r, ok := pol.(Resetter); ok {
			r.Reset(rt.sw)
		}
		sh.pol = pol
	}
	rt.cfg.Policy = rc.Policy
	rt.cfg.MaxPending = rc.MaxPending
	rt.cfg.Admit = rc.Admit
	rt.cfg.Deadline = rc.Deadline
	rt.deadline = rc.Deadline
	rt.stalled = 0
	return nil
}

// Parker is a LiveFeeder whose idle wait can be multiplexed with the
// runtime's control mailbox: Park blocks until a flow arrives (ok true),
// the feed is closed and drained (ok false), or wake receives (woke
// true, no flow consumed). A runtime parked on a plain LiveFeeder's
// blocking Next cannot answer PendingFlows / CheckpointState / Reload
// requests — or honor Stop — until the next arrival; a Parker source
// keeps the control surface live while the feed is quiet.
// workload.ChanSource is the canonical implementation.
type Parker interface {
	LiveFeeder
	Park(wake <-chan struct{}) (f switchnet.Flow, ok, woke bool)
}

// Control requests serviced by the coordinator between rounds (see
// serveCtl); ctlResp is the reply.
const (
	ctlPending = iota + 1
	ctlCheckpoint
	ctlReload
)

type ctlReq struct {
	kind int
	dst  []switchnet.Flow
	rc   ReloadConfig
	resp chan ctlResp
}

type ctlResp struct {
	st  CheckpointState
	err error
}

// serveCtl answers at most one queued control request per step. It runs
// at the top of step, when shard state is quiescent and the inboxes are
// empty (the previous round phase threaded them); owed picks retire
// first, so flows the previous round already scheduled are not reported
// as pending and a captured summary is exact. The idle check is one
// non-blocking channel poll — no clock, no allocation.
func (rt *Runtime) serveCtl() {
	select {
	case req := <-rt.ctl:
		rt.applyPending()
		req.resp <- rt.handleCtl(req)
	default:
	}
}

// handleCtl executes one control request at the quiescent point.
func (rt *Runtime) handleCtl(req ctlReq) ctlResp {
	switch req.kind {
	case ctlReload:
		return ctlResp{err: rt.applyReload(req.rc)}
	case ctlCheckpoint:
		buf := rt.collectPendingBySeq(req.dst)
		p := len(buf)
		if rt.haveLook {
			buf = append(buf, rt.look)
		}
		return ctlResp{st: CheckpointState{
			Round: rt.round, Pending: p, Flows: buf, Summary: rt.Snapshot(),
			Policy:  rt.cfg.Policy.Name(),
			Scratch: rt.collectScratch(nil),
			Windows: rt.collectWindows(nil),
		}}
	default: // ctlPending
		return ctlResp{st: CheckpointState{Round: rt.round, Flows: rt.collectPending(req.dst)}}
	}
}

// collectScratch captures each shard policy's scratch state (see
// scratchPolicy) into dst, reusing its per-shard slices when the shape
// matches; nil when the policy carries no scratch. Explicit-request
// captures pass nil (freshly allocated, so the reply cannot alias the
// periodic trigger's reused buffers); fireCheckpoint passes its own.
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
// Config.CheckpointEveryRounds): it settles owed picks, captures a
// CheckpointState into the runtime-owned reused buffers, and hands it to
// OnCheckpoint. The callback must not retain the state or its flow slice
// past its return — the next capture overwrites both.
func (rt *Runtime) fireCheckpoint() {
	rt.applyPending()
	buf := rt.collectPendingBySeq(rt.ckptBuf[:0])
	p := len(buf)
	if rt.haveLook {
		buf = append(buf, rt.look)
	}
	rt.ckptBuf = buf
	rt.scratchBufs = rt.collectScratch(rt.scratchBufs)
	rt.winBufs = rt.collectWindows(rt.winBufs)
	rt.ckptState = CheckpointState{
		Round: rt.round, Pending: p, Flows: buf, Summary: rt.Snapshot(),
		Policy:  rt.cfg.Policy.Name(),
		Scratch: rt.scratchBufs,
		Windows: rt.winBufs,
	}
	rt.cfg.OnCheckpoint(&rt.ckptState)
	rt.nextCkpt = rt.round + rt.ckptEvery
}

// finishedCtl is the post-run fallback: once Run has returned the state
// is quiescent, so snapshot requests read it directly (best-effort if the
// run failed mid-round: picks the error abandoned may still be linked).
// A reload after the run is meaningless and reports an error.
func (rt *Runtime) finishedCtl(req ctlReq) ctlResp {
	switch req.kind {
	case ctlReload:
		return ctlResp{err: fmt.Errorf("stream: reload: runtime already finished")}
	case ctlCheckpoint:
		buf := rt.collectPendingBySeq(req.dst)
		p := len(buf)
		if rt.haveLook {
			buf = append(buf, rt.look)
		}
		return ctlResp{st: CheckpointState{
			Round: int(rt.mRound.Load()), Pending: p, Flows: buf, Summary: rt.Snapshot(),
			Policy:  rt.cfg.Policy.Name(),
			Scratch: rt.collectScratch(nil),
			Windows: rt.collectWindows(nil),
		}}
	default:
		return ctlResp{st: CheckpointState{Round: int(rt.mRound.Load()), Flows: rt.collectPending(req.dst)}}
	}
}

// request hands req to the coordinator and waits for the reply, falling
// back to a direct read once Run has returned. The wake nudge unparks an
// idle live runtime (Parker sources) so the request is serviced even
// while the feed is quiet.
func (rt *Runtime) request(ctx context.Context, req ctlReq) (ctlResp, error) {
	select {
	case rt.ctl <- req:
		rt.nudge()
	case <-rt.finished:
		return rt.finishedCtl(req), nil
	case <-ctx.Done():
		return ctlResp{}, ctx.Err()
	}
	select {
	case resp := <-req.resp:
		return resp, nil
	case <-rt.finished:
		// The coordinator may have taken the request just before
		// finishing; prefer its reply, else the state is quiescent now and
		// a direct read is safe.
		select {
		case resp := <-req.resp:
			return resp, nil
		default:
		}
		return rt.finishedCtl(req), nil
	case <-ctx.Done():
		return ctlResp{}, ctx.Err()
	}
}

// nudge unparks an idle live runtime so a queued control request (or a
// Stop) is noticed while the feed is quiet. Buffered and lossy: one
// pending wake is enough, extras coalesce.
func (rt *Runtime) nudge() {
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// PendingFlows snapshots the resident pending set without stalling the
// round loop: the request is handed to the coordinator, which services
// it between rounds (retiring owed picks first, so the snapshot never
// contains an already-scheduled flow), and the flows are appended to
// dst[:0] along with the round the snapshot is consistent at. After Run
// has returned the quiescent state is read directly.
//
// A runtime parked idle on a Parker source is woken to answer; on a
// plain LiveFeeder the request waits for the next arrival — but a parked
// runtime's pending set is empty, so callers should use a ctx timeout
// and treat expiry as "empty or idle". dst is reused across calls by
// design; the returned slice aliases it.
func (rt *Runtime) PendingFlows(ctx context.Context, dst []switchnet.Flow) ([]switchnet.Flow, int, error) {
	resp, err := rt.request(ctx, ctlReq{kind: ctlPending, dst: dst[:0], resp: make(chan ctlResp, 1)})
	if err != nil {
		return dst[:0], 0, err
	}
	return resp.st.Flows, resp.st.Round, nil
}

// CheckpointState snapshots everything a restart needs — the pending set
// with original releases (plus the un-admitted lookahead, if the
// coordinator holds one), the round, and an exact balanced Summary — at
// a quiescent point between rounds, without stalling the round loop. The
// flows are appended to dst[:0]; the returned state aliases it. See
// PendingFlows for the service and idle-park semantics; internal/chkpt
// serializes the result.
func (rt *Runtime) CheckpointState(ctx context.Context, dst []switchnet.Flow) (CheckpointState, error) {
	resp, err := rt.request(ctx, ctlReq{kind: ctlCheckpoint, dst: dst[:0], resp: make(chan ctlResp, 1)})
	if err != nil {
		return CheckpointState{}, err
	}
	return resp.st, nil
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
	resp, err := rt.request(ctx, ctlReq{kind: ctlReload, rc: rc, resp: make(chan ctlResp, 1)})
	if err != nil {
		return err
	}
	return resp.err
}
