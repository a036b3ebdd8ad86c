package stream

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"flowsched/internal/obs"
	"flowsched/internal/stats"
	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
	"flowsched/internal/workload"
)

// Source is the runtime's one arrival contract. Every source in
// internal/workload and internal/faultinject satisfies it.
type Source = workload.FlowSource

// Parker is the one optional capability of a Source: an idle wait the
// runtime can interrupt. Park blocks like Next until a flow arrives (ok
// true) or the stream ends (ok false), and additionally returns woke=true
// — no flow consumed — when wake receives. The idle runtime calls it in
// place of Next, so a queued PendingFlows / CheckpointState / Reload
// request or a Stop is served while the feed is quiet; a source without
// it is assumed never to block for long in Next.
// workload.ChanSource is the canonical implementation.
type Parker interface {
	Park(wake <-chan struct{}) (f switchnet.Flow, ok, woke bool)
}

// ID identifies an admitted flow in the runtime's pending set. IDs are
// reused after departure: they are stable only while the flow is pending.
// Every shard's View reads the same IDs, but only the shard owning a
// flow's input may take it.
type ID = int

// NoID marks the absence of a pending flow.
const NoID ID = -1

// noID is NoID as the runtime's internal int32 link type.
const noID int32 = -1

// Policy selects a capacity-feasible set of pending flows each round by
// calling View.Take. The runtime enforces port capacities inside Take, so
// a policy cannot overload a port; it can only fail to make progress.
//
// In a sharded runtime (Config.Shards > 1) each shard runs its own policy
// instance, and Pick is invoked once per shard per round, the shards
// taking turns oldest first (see the package docs); the View is
// shard-scoped. Every Pick, at any shard count, runs on the goroutine
// driving Run.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick selects flows for the current round. The pending set and all
	// View indexes are frozen during Pick; departures apply afterwards.
	Pick(v *View)
}

// Resetter is implemented by policies that carry per-run state (e.g.
// RoundRobin's rotation pointers); the runtime calls Reset on every policy
// instance once at construction.
type Resetter interface {
	Reset(sw switchnet.Switch)
}

// Shardable is implemented by policies that can run as independent
// per-shard instances when the runtime partitions input ports across
// shards. NewShard returns a fresh policy instance for one shard; each
// instance only ever sees the shard-scoped View of its own inputs.
// Policies that need the whole pending set each round (the paper's
// heuristics, whose matchings span every port) do not implement it,
// which pins them to Shards == 1.
type Shardable interface {
	Policy
	NewShard() Policy
}

// Defaults for Config fields left zero.
const (
	DefaultMaxPending   = 1 << 17
	DefaultWindowRounds = 1024
)

// DefaultStallRounds is the stall guard: Run fails once the policy has
// scheduled nothing for that many consecutive rounds with a non-empty
// pending set.
const DefaultStallRounds = 4096

// windowShards is the ring granularity of the sliding metrics window.
const windowShards = 8

// AdmitMode selects how the runtime behaves when it cannot serve every
// arrival: lossless backpressure (the default), shedding on a full
// pending set, or deadline expiry of aged pending flows. See the package
// docs ("Admission modes") for the exact semantics and what each mode
// counts.
type AdmitMode int

const (
	// AdmitLossless stalls the source while the pending set is full:
	// nothing is ever dropped, late admissions count as Backpressured,
	// and response times stay charged from the original release round.
	AdmitLossless AdmitMode = iota
	// AdmitDrop sheds arrivals released while the pending set is full:
	// they are consumed from the source, never scheduled, and counted in
	// Summary.Dropped. The source is never stalled.
	AdmitDrop
	// AdmitDeadline expires pending flows that can no longer complete
	// within Config.Deadline rounds of their release: they leave the
	// pending set unscheduled and count in Summary.Expired, so every
	// completed flow satisfies response <= Deadline.
	AdmitDeadline
)

// String returns the mode's flag spelling ("lossless", "drop",
// "deadline").
func (m AdmitMode) String() string {
	switch m {
	case AdmitLossless:
		return "lossless"
	case AdmitDrop:
		return "drop"
	case AdmitDeadline:
		return "deadline"
	}
	return fmt.Sprintf("AdmitMode(%d)", int(m))
}

// ParseAdmitMode resolves a flag spelling to its mode.
func ParseAdmitMode(s string) (AdmitMode, error) {
	switch s {
	case "lossless", "":
		return AdmitLossless, nil
	case "drop":
		return AdmitDrop, nil
	case "deadline":
		return AdmitDeadline, nil
	}
	return 0, fmt.Errorf("stream: unknown admission mode %q (lossless, drop, deadline)", s)
}

// Config tunes a Runtime.
type Config struct {
	// Switch describes the port structure; all source flows must fit it.
	Switch switchnet.Switch
	// Policy selects flows each round. With Shards > 1 it must implement
	// Shardable; each shard then runs its own NewShard instance.
	Policy Policy
	// Shards partitions the input ports across that many shards (input i
	// belongs to shard i mod Shards), each with its own policy instance
	// and a View scoped to its inputs; each round the shards take turns,
	// oldest first, as the package docs describe. The pending flows stay
	// in the runtime's one store.
	// The shards run in sequence on the goroutine driving Run, so the
	// count changes the schedule, not the parallelism. <= 0 selects 1; the
	// value is always capped at NumIn.
	Shards int
	// MaxPending bounds the resident pending set (admission control);
	// <= 0 selects DefaultMaxPending. What happens at the limit is
	// Admit's choice: backpressure (AdmitLossless, the default) or
	// shedding (AdmitDrop).
	MaxPending int
	// Admit selects the overload behavior: AdmitLossless (default)
	// stalls the source at MaxPending, AdmitDrop sheds arrivals while
	// the pending set is full, AdmitDeadline expires pending flows that
	// can no longer meet Deadline.
	Admit AdmitMode
	// Deadline is the response-time bound in rounds for AdmitDeadline: a
	// pending flow expires once completing in the current round would
	// give it a response greater than Deadline. Required positive with
	// AdmitDeadline, and must be zero with the other modes.
	Deadline int
	// VerifyEvery > 0 checks every round through the verify oracle as it
	// closes: an infeasible round ends the run in that round, after it
	// retires. Each window of that many rounds that checked a round counts
	// once in WindowsVerified. 0 turns verification off, and a negative
	// value is a construction error.
	VerifyEvery int
	// WindowRounds is the sliding metrics window in rounds (<= 0 selects
	// DefaultWindowRounds).
	WindowRounds int
	// OnSchedule, when non-nil, observes every departure: seq is the
	// flow's admission sequence number (its position in source order). It
	// is always invoked from the goroutine driving Run, in shard index
	// order within a round, before the round's picks retire.
	OnSchedule func(seq int64, f switchnet.Flow, round int)
	// Recorder, when non-nil, receives one obs.RoundRecord per scheduling
	// round, written by the coordinator inside the round loop: per-round
	// arrival/schedule/drop/expiry/pending counts plus per-phase
	// nanoseconds (expire and pick, turn ordering, apply, verify).
	// Recording adds no allocations to the steady-state round (asserted
	// by TestSteadyStateZeroAllocRecorded) and only two monotonic-clock
	// reads per timed phase; with Recorder nil the hot path takes no
	// clock reads at all.
	Recorder *obs.FlightRecorder
	// ResponseBound, when > 0, counts every completion whose response
	// time exceeds it in Summary.SlowResponses — an exact cumulative
	// violation counter (not sketch resolution) for response-time SLO
	// evaluation. Unlike AdmitDeadline it never changes the schedule:
	// slow flows still complete, they are just counted.
	ResponseBound int
	// Resume, when non-nil, restarts the runtime from a captured
	// CheckpointState, and the restore is complete when New returns: the
	// clock reads Resume.Round, the cumulative counters continue from
	// Resume.Summary, and the pending set Resume.Flows[:Resume.Pending] is
	// resident with its original releases, under the admission sequence
	// numbers and shards it had (not counted again as admissions or
	// backpressure). A trailing lookahead flow is the next one admitted.
	// The source carries only what follows: a replayable one skips
	// Resume.SourceFlows() flows (workload.Skip), a live one starts empty.
	// New rejects a state it cannot continue faithfully — a negative
	// round or count, unbalanced or negative counters, more pending flows
	// than MaxPending, anything but zero or one flow past the pending
	// set, or a flow released after the round, out of release order, or
	// inadmissible on the switch. See the package docs ("Durability and
	// reload").
	Resume *CheckpointState
	// CheckpointEveryRounds > 0 invokes OnCheckpoint with a quiescent
	// CheckpointState at most once per that many rounds, from the
	// coordinator between rounds. The trigger is a round-cadence integer
	// comparison with no clock reads; a round that captures allocates
	// the capture, and the rounds between allocate nothing. Requires
	// OnCheckpoint.
	CheckpointEveryRounds int
	// OnCheckpoint receives periodic checkpoint captures (see
	// CheckpointEveryRounds). It runs on the coordinator goroutine with
	// the round loop paused; a slow callback stalls scheduling. Each
	// capture is freshly allocated and shares nothing with the runtime,
	// so the callback owns it and may keep it.
	OnCheckpoint func(*CheckpointState)
}

// Summary is a point-in-time view of the runtime's streaming metrics.
type Summary struct {
	// Round is the current round (one past the last scheduled round after
	// a completed Run).
	Round int
	// Rounds counts scheduling rounds actually processed (idle gaps are
	// skipped, not iterated).
	Rounds int64
	// Shards is the number of runtime shards the input ports are
	// partitioned across (1 = unsharded).
	Shards int
	// Admitted counts every flow the runtime consumed from the source —
	// including flows AdmitDrop shed — and Completed the flows scheduled
	// to completion, so the accounting always balances:
	// Admitted == Completed + Pending + Dropped + Expired. Pending is
	// the current resident count and PeakPending its high water mark
	// (never above MaxPending).
	Admitted    int64
	Completed   int64
	Pending     int
	PeakPending int
	// Backpressured counts flows admitted after their release round
	// because the pending set was full (AdmitLossless).
	Backpressured int64
	// Dropped counts arrivals shed on a full pending set (AdmitDrop);
	// Expired counts pending flows that aged past the deadline and left
	// unscheduled (AdmitDeadline). Both are zero in other modes.
	Dropped int64
	Expired int64
	// TotalResponse, AvgResponse, MaxResponse are the paper's metrics
	// over completed flows (C_e = round+1 convention).
	TotalResponse int64
	AvgResponse   float64
	MaxResponse   int
	// SlowResponses counts completions whose response time exceeded
	// Config.ResponseBound (zero when the bound is unset).
	SlowResponses int64
	// WindowsVerified counts the verification windows that checked at
	// least one round (see Config.VerifyEvery). A rejected round ends the
	// run, so every counted window's rounds were all accepted.
	WindowsVerified int64
	// P50, P90, P99 are response-time quantiles over the sliding metrics
	// window (sketched; see stats.LogHistogram for the error bound).
	P50, P90, P99 float64
}

// Runtime is the streaming scheduler. Run drives it from one goroutine —
// the coordinator — which pulls the source, threads arrivals into the
// pending store, runs every shard's part of each round itself, in shard
// order, and checks each round with the verify oracle as it closes; a
// Runtime starts no goroutine. Snapshot may be called concurrently from
// other goroutines; it reads atomics and the epoch window only, so it
// never stalls the round loop.
type Runtime struct {
	cfg  Config
	src  Source
	sw   switchnet.Switch
	caps []int

	// parker is src's Park method when it offers one (see Parker).
	parker Parker

	// rec is Config.Recorder. The recArrived/recDropped counts hold the
	// arrivals and drops since the last emitted record (an idle step
	// admits without emitting one); both are touched only when
	// rec != nil. A round's phase times are step's locals.
	rec        *obs.FlightRecorder
	recArrived int64
	recDropped int64

	// ctl is the quiescent-point mailbox: closures the coordinator runs
	// between rounds (see quiesce); finished is closed once Run returns,
	// after which they run directly on the caller. wake interrupts an idle
	// Park so a queued closure or a Stop is noticed while the feed is
	// quiet.
	ctl      chan func()
	wake     chan struct{}
	finished chan struct{}
	finOnce  sync.Once

	// stop requests a clean stop of Run between rounds (see Stop).
	stop atomic.Bool

	// running is set, under runMu, when Run starts; until then quiesce
	// runs its closure on the caller while holding runMu.
	runMu   sync.Mutex
	running bool

	// ckptEvery/nextCkpt drive the round-cadence OnCheckpoint trigger.
	ckptEvery int
	nextCkpt  int

	nshards int
	shards  []*shard

	// The pending store (see arena.go): one arena, with head/tail
	// delimiting the admission-order list through it; the VOQs, indexed
	// in*mOut+out, and their head-age records; each input's nw-word
	// active-VOQ bitmap, and its stale bitmap of head-age records to
	// refresh on their next read; the pending counts per port; the round's
	// scheduled demand per port, with touchIn/touchOut listing the ports
	// it is nonzero at (reserved at the port counts: Take touches a port
	// once a round); and each input's index in its shard's activeIn
	// list.
	ar                arena
	head, tail        int32
	mOut, nw          int
	vqs               []voqState
	heads             []voqHead
	actBits, stale    []uint64
	queueIn, queueOut []int
	loadIn, loadOut   []int
	touchIn, touchOut []int32
	activeInPos       []int32

	round int
	count int
	seq   int64
	peak  int

	// look is the one flow fetched past an empty pending set (see idle),
	// held until the next admission pass admits it.
	look     switchnet.Flow
	haveLook bool
	lastRel  int
	batch    []switchnet.Flow

	// turns is the round's shard turn order (see orderTurns) and
	// turnRel its per-shard sort key scratch.
	turns   []int
	turnRel []int64

	err     error
	stalled int

	// Verification state. checkRound copies the round's picks, in shard
	// order, into vFlows/vRounds — the oracle's scratch, which
	// reserveRound reserves at the most flows a round can pick and which
	// is only resliced, never appended to — and runs the runtime's one
	// Checker over them. vstart is the active window's first round and
	// vchecked whether the window has checked a round; flushWindow counts
	// it.
	vstart   int
	vchecked bool
	vFlows   []switchnet.Flow
	vRounds  []int
	checker  verify.Checker

	// Snapshot-visible metrics. The round loop only ever stores/adds;
	// Snapshot only loads. win is the sliding response-time window, an
	// epoch (seqlock) window readers copy without stalling the writer.
	mRound         atomic.Int64
	mRounds        atomic.Int64
	mAdmitted      atomic.Int64
	mBackpressured atomic.Int64
	mDropped       atomic.Int64
	mPeak          atomic.Int64
	mWindows       atomic.Int64
	mCompleted     atomic.Int64
	mExpired       atomic.Int64
	mTotalResp     atomic.Int64
	mMaxResp       atomic.Int64
	mSlowResp      atomic.Int64
	win            *stats.EpochWindow

	// snapMu serializes concurrent Snapshot callers over the read
	// scratch; the round loop never takes it.
	snapMu  sync.Mutex
	scratch stats.LogHistogram
}

// New builds a Runtime over src. The configuration is validated eagerly:
// an empty switch, non-positive capacities, a missing policy, or a shard
// count the policy cannot support are construction errors, not run-time
// surprises.
func New(src Source, cfg Config) (*Runtime, error) {
	if src == nil {
		return nil, fmt.Errorf("stream: nil source")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("stream: nil policy")
	}
	mIn, mOut := cfg.Switch.NumIn(), cfg.Switch.NumOut()
	if mIn == 0 || mOut == 0 {
		return nil, fmt.Errorf("stream: switch has no ports (%d x %d)", mIn, mOut)
	}
	if mIn > 1<<15 || mOut > 1<<15 {
		// Port numbers ride in the arena's 16-bit descriptor fields.
		return nil, fmt.Errorf("stream: switch %d x %d exceeds the runtime's %d ports per side", mIn, mOut, 1<<15)
	}
	for i, c := range cfg.Switch.InCaps {
		if c <= 0 {
			return nil, fmt.Errorf("stream: input port %d capacity %d is not positive", i, c)
		}
		if c > math.MaxInt32 {
			// Demands ride in the arena's 32-bit descriptor field and are
			// bounded by the port capacities (ValidateFlow).
			return nil, fmt.Errorf("stream: input port %d capacity %d exceeds the runtime's %d", i, c, math.MaxInt32)
		}
	}
	for j, c := range cfg.Switch.OutCaps {
		if c <= 0 {
			return nil, fmt.Errorf("stream: output port %d capacity %d is not positive", j, c)
		}
		if c > math.MaxInt32 {
			return nil, fmt.Errorf("stream: output port %d capacity %d exceeds the runtime's %d", j, c, math.MaxInt32)
		}
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	if err := validateAdmit(cfg.Admit, cfg.Deadline); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if cfg.ResponseBound < 0 {
		return nil, fmt.Errorf("stream: ResponseBound %d is negative", cfg.ResponseBound)
	}
	if cfg.VerifyEvery < 0 {
		return nil, fmt.Errorf("stream: VerifyEvery %d is negative", cfg.VerifyEvery)
	}
	if cfg.WindowRounds <= 0 {
		cfg.WindowRounds = DefaultWindowRounds
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > mIn {
		cfg.Shards = mIn
	}
	if cfg.CheckpointEveryRounds < 0 {
		return nil, fmt.Errorf("stream: CheckpointEveryRounds %d is negative", cfg.CheckpointEveryRounds)
	}
	if cfg.CheckpointEveryRounds > 0 && cfg.OnCheckpoint == nil {
		return nil, fmt.Errorf("stream: CheckpointEveryRounds %d needs an OnCheckpoint callback", cfg.CheckpointEveryRounds)
	}
	rt := &Runtime{
		cfg:       cfg,
		src:       src,
		sw:        cfg.Switch,
		caps:      cfg.Switch.Caps(),
		rec:       cfg.Recorder,
		nshards:   cfg.Shards,
		shards:    make([]*shard, cfg.Shards),
		ctl:       make(chan func(), 1),
		wake:      make(chan struct{}, 1),
		finished:  make(chan struct{}),
		ckptEvery: cfg.CheckpointEveryRounds,
		nextCkpt:  cfg.CheckpointEveryRounds,
		win:       stats.NewEpochWindow(cfg.WindowRounds, windowShards),
	}
	rt.parker, _ = src.(Parker)
	rt.initStore(mIn, mOut)
	rt.turns = make([]int, rt.nshards)
	rt.turnRel = make([]int64, rt.nshards)
	for s := range rt.shards {
		rt.shards[s] = newShard(rt, s)
		rt.turns[s] = s
	}
	rt.reserveRound()
	if err := rt.installPolicy(cfg.Policy); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if cfg.Resume != nil {
		if err := rt.restore(cfg.Resume); err != nil {
			return nil, err
		}
		if rt.ckptEvery > 0 {
			rt.nextCkpt = rt.round + rt.ckptEvery
		}
	}
	return rt, nil
}

// validateAdmit checks an admission mode against its deadline.
func validateAdmit(mode AdmitMode, deadline int) error {
	switch mode {
	case AdmitLossless, AdmitDrop:
		if deadline != 0 {
			return fmt.Errorf("Deadline %d is set but Admit is %s (deadlines need AdmitDeadline)", deadline, mode)
		}
	case AdmitDeadline:
		if deadline <= 0 {
			return fmt.Errorf("AdmitDeadline needs a positive Deadline, got %d", deadline)
		}
	default:
		return fmt.Errorf("unknown admission mode %d", int(mode))
	}
	return nil
}

// installPolicy gives every shard its instance of pol — pol itself at one
// shard, a fresh NewShard each otherwise — Reset against the switch, and
// records pol as the configured policy.
func (rt *Runtime) installPolicy(pol Policy) error {
	sharder, shardable := pol.(Shardable)
	if rt.nshards > 1 && !shardable {
		return fmt.Errorf("policy %q cannot run sharded (it does not implement Shardable) and the runtime has %d shards",
			pol.Name(), rt.nshards)
	}
	for _, sh := range rt.shards {
		sh.pol = pol
		if rt.nshards > 1 {
			sh.pol = sharder.NewShard()
		}
		if r, ok := sh.pol.(Resetter); ok {
			r.Reset(rt.sw)
		}
	}
	rt.cfg.Policy = pol
	return nil
}

// checkFlow validates the stream contract for a consumed flow — releases
// non-decreasing, flow admissible on the switch — whether it is admitted
// or shed, so a malformed source fails the run even under AdmitDrop.
func (rt *Runtime) checkFlow(f *switchnet.Flow) error {
	if f.Release < rt.lastRel {
		return fmt.Errorf("stream: source yielded release %d after %d (must be non-decreasing)", f.Release, rt.lastRel)
	}
	rt.lastRel = f.Release
	if !rt.sw.Admits(f) {
		return fmt.Errorf("stream: inadmissible flow: %w", rt.sw.ValidateFlow(*f))
	}
	return nil
}

// route validates f, assigns its admission sequence number, and threads
// it into the pending store (admitFlow). Returns the number backpressured
// (0 or 1) for metric batching.
func (rt *Runtime) route(f *switchnet.Flow) (int, error) {
	if err := rt.checkFlow(f); err != nil {
		return 0, err
	}
	rt.admitFlow(f, rt.seq)
	rt.seq++
	rt.count++
	if f.Release < rt.round {
		return 1, nil
	}
	return 0, nil
}

// dropChunk is the batch size for shedding a released backlog under
// AdmitDrop: large enough to amortize the interface call, small enough
// that the reused batch buffer stays cache-resident.
const dropChunk = 512

// admitted batches one admission pass's counter updates into the
// snapshot-visible atomics.
func (rt *Runtime) admitted(arrived, backpressured, dropped int) {
	if arrived == 0 {
		return
	}
	if rt.rec != nil {
		rt.recArrived += int64(arrived)
		rt.recDropped += int64(dropped)
	}
	rt.mAdmitted.Add(int64(arrived))
	if backpressured > 0 {
		rt.mBackpressured.Add(int64(backpressured))
	}
	if dropped > 0 {
		rt.mDropped.Add(int64(dropped))
	}
	if rt.count > rt.peak {
		rt.peak = rt.count
		rt.mPeak.Store(int64(rt.peak))
	}
}

// admit is the one admission pass: it routes the flow an idle step
// fetched (the pending set was empty then, so there is room), then drains
// everything the source has released by this round into the pending
// store, MaxPending-count flows at a time, until a short batch says
// nothing more is released. At the limit AdmitDrop keeps draining in
// dropChunk batches and sheds them; the other modes stop and leave the
// backlog in the source.
func (rt *Runtime) admit() error {
	arrived, backpressured, dropped := 0, 0, 0
	if rt.haveLook {
		bp, err := rt.route(&rt.look)
		if err != nil {
			return err
		}
		arrived++
		backpressured += bp
		rt.haveLook = false
	}
	for {
		want := rt.cfg.MaxPending - rt.count
		if want <= 0 {
			if rt.cfg.Admit != AdmitDrop {
				break
			}
			want = dropChunk
		}
		rt.batch = rt.src.PullBatch(rt.batch[:0], rt.round, want)
		for i := range rt.batch {
			f := &rt.batch[i]
			if rt.count < rt.cfg.MaxPending {
				bp, err := rt.route(f)
				if err != nil {
					return err
				}
				backpressured += bp
			} else {
				if err := rt.checkFlow(f); err != nil {
					return err
				}
				dropped++
			}
		}
		arrived += len(rt.batch)
		if len(rt.batch) < want {
			break
		}
	}
	rt.admitted(arrived, backpressured, dropped)
	return nil
}

// orderTurns sets the round's shard turn order: by the shards' oldest
// pending release (shard.oldestRel), ties to the lower shard index, so
// the shard holding the oldest flow picks first and each later shard
// picks against the output capacity the earlier ones left. Each shard
// still serves only its own inputs, so this is not the global selection
// an unsharded policy makes. The order is a pure function of the
// pending store, so schedules stay deterministic for a fixed K.
func (rt *Runtime) orderTurns() {
	order := rt.turns
	for i, sh := range rt.shards {
		rt.turnRel[i] = sh.oldestRel()
	}
	// Insertion sort by (oldest pending release, shard index): K is small
	// and last round's order is usually nearly right.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j], order[j-1]
			if rt.turnRel[a] > rt.turnRel[b] || (rt.turnRel[a] == rt.turnRel[b] && a > b) {
				break
			}
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// firstErr surfaces the first error in deterministic order: the runtime's
// own, then each shard's in shard order.
func (rt *Runtime) firstErr() error {
	if rt.err != nil {
		return rt.err
	}
	for _, sh := range rt.shards {
		if sh.err != nil {
			return sh.err
		}
	}
	return nil
}

// setRound advances time to t. With verification on it counts the
// window if the clock leaves it.
func (rt *Runtime) setRound(t int) {
	if w := rt.cfg.VerifyEvery; w > 0 && t >= rt.vstart+w {
		// Rounds only move forward, so every round of the window has been
		// checked: one flush counts it, and the empty windows an idle jump
		// crosses are skipped in a single step.
		rt.flushWindow()
		rt.vstart += (t - rt.vstart) / w * w
	}
	rt.round = t
	rt.mRound.Store(int64(t))
}

// reserveRound sizes what one round fills: each shard's takes and, with
// verification on, the oracle's scratch. Take picks a flow only while
// both its ports have room, and every flow carries at least one unit, so
// a round picks at most min(Σ input caps, Σ output caps) flows — the
// input sum over a shard's own inputs for its takes — and never more
// than MaxPending, the most flows pending at once. The reservations only
// grow, so a Reload that raises MaxPending widens them and one that
// lowers MaxPending below the resident count keeps room for them. It
// runs only between rounds, when every takes is empty (in New and at the
// quiescent point).
func (rt *Runtime) reserveRound() {
	out, all := 0, 0
	for _, c := range rt.sw.OutCaps {
		out += c
	}
	for _, sh := range rt.shards {
		in := 0
		for i := sh.idx; i < len(rt.sw.InCaps); i += rt.nshards {
			in += rt.sw.InCaps[i]
		}
		all += in
		if n := min(in, out, rt.cfg.MaxPending); n > cap(sh.takes) {
			sh.takes = make([]int32, 0, n)
		}
	}
	if n := min(all, out, rt.cfg.MaxPending); rt.cfg.VerifyEvery > 0 && n > cap(rt.vFlows) {
		rt.vFlows = make([]switchnet.Flow, 0, n)
		rt.vRounds = make([]int, 0, n)
	}
}

// checkRound runs the oracle, with verification on, over the round's n
// picks, on the coordinator, after the OnSchedule callbacks and before
// the picks retire, and marks the window as having checked a round. The
// picks are all of the round's load, so the oracle's per-(port, round)
// capacity check is exact, and they are one round, so the oracle sweeps
// them without sorting. A round that picked nothing is not checked. The
// verdict never changes the schedule. It returns the check's wall time
// in nanoseconds when a recorder is attached, 0 otherwise, and the
// oracle's error.
func (rt *Runtime) checkRound(n int) (ns int64, err error) {
	if n == 0 || rt.cfg.VerifyEvery == 0 {
		return
	}
	rt.vchecked = true
	var t0 time.Time
	if rt.rec != nil {
		t0 = time.Now()
	}
	flows, rounds := rt.vFlows[:n], rt.vRounds[:n]
	i := 0
	for _, sh := range rt.shards {
		for _, id := range sh.takes {
			flows[i], rounds[i] = rt.ar.flow(id), rt.round
			i++
		}
	}
	inst := switchnet.Instance{Switch: rt.sw, Flows: flows}
	sched := switchnet.Schedule{Round: rounds}
	_, err = rt.checker.Check(&inst, &sched, rt.caps)
	if rt.rec != nil {
		ns = time.Since(t0).Nanoseconds()
	}
	return ns, err
}

// flushWindow counts the window in WindowsVerified if it checked a
// round. Every round it checked was accepted: a rejected one ends the
// run before its window can flush.
func (rt *Runtime) flushWindow() {
	if rt.vchecked {
		rt.vchecked = false
		rt.mWindows.Add(1)
	}
}

// retire ends the round: it folds the round's n picks into the completion
// metrics — one write section of the sliding window, one batch of atomics
// — departs them in shard-then-pick order, and clears the round's port
// loads. It runs after the OnSchedule callbacks and the round's check.
//
//flowsched:hotpath
func (rt *Runtime) retire(n int) {
	if n == 0 {
		return
	}
	t := rt.round
	bound := rt.cfg.ResponseBound
	var sum, slow int64
	maxR := int(rt.mMaxResp.Load())
	rt.win.Begin(t)
	for _, sh := range rt.shards {
		for _, id := range sh.takes {
			resp := t + 1 - int(rt.ar.rec[id].rel)
			sum += int64(resp)
			if resp > maxR {
				maxR = resp
			}
			if bound > 0 && resp > bound {
				slow++
			}
			rt.win.Observe(resp)
		}
	}
	rt.win.End()
	rt.mCompleted.Add(int64(n))
	rt.mTotalResp.Add(sum)
	rt.mMaxResp.Store(int64(maxR))
	if slow > 0 {
		rt.mSlowResp.Add(slow)
	}

	for _, sh := range rt.shards {
		for _, id := range sh.takes {
			rt.depart(sh, id)
		}
		sh.takes = sh.takes[:0]
	}
	for _, p := range rt.touchIn {
		rt.loadIn[p] = 0
	}
	for _, p := range rt.touchOut {
		rt.loadOut[p] = 0
	}
	rt.touchIn, rt.touchOut = rt.touchIn[:0], rt.touchOut[:0]
}

// step advances the runtime by one iteration — an idle jump or one
// scheduling round — and reports whether the stream is fully drained.
func (rt *Runtime) step() (done bool, err error) {
	rt.serveCtl()
	if rt.ckptEvery > 0 && rt.round >= rt.nextCkpt {
		// Round-cadence periodic checkpoint: the trigger is one integer
		// compare per step (no clock reads), so only the capturing round
		// allocates.
		rt.fireCheckpoint()
	}
	if err := rt.admit(); err != nil {
		return false, err
	}
	if rt.count == 0 {
		return rt.idle()
	}

	// Expire what the deadline has passed, then the shards take their
	// turns. The turn ordering is timed apart from the span around it.
	var t0 time.Time
	var proposeNS, reconcileNS, applyNS int64
	if rt.rec != nil {
		t0 = time.Now()
	}
	expired := 0
	if rt.cfg.Deadline > 0 {
		expired = rt.expire()
	}
	if rt.nshards > 1 {
		var t1 time.Time
		if rt.rec != nil {
			t1 = time.Now()
		}
		rt.orderTurns()
		if rt.rec != nil {
			reconcileNS = time.Since(t1).Nanoseconds()
			proposeNS = -reconcileNS
		}
	}
	for _, s := range rt.turns {
		rt.shards[s].pick()
	}
	if expired > 0 {
		rt.mExpired.Add(int64(expired))
	}
	if rt.rec != nil {
		proposeNS += time.Since(t0).Nanoseconds()
	}
	if err := rt.firstErr(); err != nil {
		rt.err = err
		return false, err
	}

	total := 0
	for _, sh := range rt.shards {
		total += len(sh.takes)
	}
	rt.mRounds.Add(1)
	if total == 0 && expired == 0 {
		rt.stalled++
		if rt.stalled >= DefaultStallRounds {
			return false, fmt.Errorf("stream: policy %q scheduled nothing for %d consecutive rounds with %d flows pending",
				rt.cfg.Policy.Name(), rt.stalled, rt.count)
		}
	} else {
		rt.stalled = 0
	}

	if cb := rt.cfg.OnSchedule; cb != nil {
		// The taken slots retire below, so they are still live here; shard
		// order keeps the callback sequence deterministic.
		for _, sh := range rt.shards {
			for _, id := range sh.takes {
				cb(rt.ar.seq[id], rt.ar.flow(id), rt.round)
			}
		}
	}
	verifyNS, checkErr := rt.checkRound(total)
	if rt.rec != nil {
		t0 = time.Now()
	}
	rt.retire(total)
	if rt.rec != nil {
		applyNS = time.Since(t0).Nanoseconds()
	}
	rt.count -= total + expired
	if rt.rec != nil {
		// One record per scheduling round (idle jumps emit nothing, so
		// the trace's rounds are strictly increasing), carrying the
		// round's own phases, its check included.
		rt.rec.Record(obs.RoundRecord{
			Round:       int64(rt.round),
			Arrived:     rt.recArrived,
			Scheduled:   int64(total),
			Dropped:     rt.recDropped,
			Expired:     int64(expired),
			Pending:     int64(rt.count),
			ProposeNS:   proposeNS,
			ReconcileNS: reconcileNS,
			ApplyNS:     applyNS,
			VerifyNS:    verifyNS,
		})
		rt.recArrived, rt.recDropped = 0, 0
	}
	if checkErr != nil {
		// The rejected round has retired and been recorded, so the state
		// the run leaves behind is quiescent; the clock stays on it.
		return false, fmt.Errorf("stream: round %d failed verification: %w", rt.round, checkErr)
	}
	rt.setRound(rt.round + 1)
	return false, nil
}

// idle is the step of a runtime with nothing pending and nothing
// released: it fetches the next flow — Park(wake) on a Parker source,
// Next otherwise — holds it as the lookahead and jumps the clock to its
// release, or ends the run when the stream has. On a concurrently-fed
// source this is where the runtime waits; a wake (a queued mailbox
// closure, a Stop) returns without a flow and the next step serves it.
func (rt *Runtime) idle() (done bool, err error) {
	var f switchnet.Flow
	var ok bool
	if rt.parker != nil {
		var woke bool
		if f, ok, woke = rt.parker.Park(rt.wake); woke {
			return false, nil
		}
	} else {
		f, ok = rt.src.Next()
	}
	if !ok {
		return true, rt.src.Err()
	}
	rt.look, rt.haveLook = f, true
	if f.Release > rt.round {
		rt.setRound(f.Release)
	}
	return false, nil
}

// Run drains the source: it advances round by round until the source is
// exhausted and the pending set is empty — or until Stop is called — then
// returns the final summary. On either exit every round's picks have
// retired and the last, partial window has been counted; an error return,
// a rejected round's included, leaves nothing running either. It is not
// restartable.
func (rt *Runtime) Run() (*Summary, error) {
	defer rt.finOnce.Do(func() { close(rt.finished) })
	rt.runMu.Lock()
	rt.running = true
	rt.runMu.Unlock()
	if err := rt.firstErr(); err != nil {
		return nil, err
	}
	for !rt.stop.Load() {
		done, err := rt.step()
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	rt.flushWindow()
	s := rt.Snapshot()
	return &s, nil
}

// Stop requests a clean stop: Run finishes the iteration in flight,
// counts the last, partial verification window, and returns the final
// Summary with a nil error. Safe to call from any goroutine, before or
// during Run, and idempotent. A runtime parked idle on a Parker source
// is woken and stops promptly; blocked in the Next of a source without
// Park it is not interruptible — that shutdown path must close the
// source too.
func (rt *Runtime) Stop() {
	rt.stop.Store(true)
	rt.nudge()
}

// Snapshot returns the current streaming metrics. It is safe to call
// concurrently with Run and never blocks the round loop: scalar counters
// are atomics and the window sketch is an epoch (seqlock) window the
// reader retries, so the coordinator proceeds at full speed while any
// number of snapshots are taken.
func (rt *Runtime) Snapshot() Summary {
	rt.snapMu.Lock()
	defer rt.snapMu.Unlock()
	round := int(rt.mRound.Load())
	completed, totalResp := rt.mCompleted.Load(), rt.mTotalResp.Load()
	expired := rt.mExpired.Load()
	rt.win.ReadInto(&rt.scratch, round)
	// Admitted loads after the outcome counters: it only grows and is
	// always at least their sum on the writer side, so
	// Completed + Dropped + Expired <= Admitted (and Pending >= 0) holds
	// in every snapshot.
	dropped := rt.mDropped.Load()
	admitted := rt.mAdmitted.Load()
	s := Summary{
		Round:           round,
		Rounds:          rt.mRounds.Load(),
		Shards:          rt.nshards,
		Admitted:        admitted,
		Completed:       completed,
		Pending:         int(admitted - completed - dropped - expired),
		PeakPending:     int(rt.mPeak.Load()),
		Backpressured:   rt.mBackpressured.Load(),
		Dropped:         dropped,
		Expired:         expired,
		TotalResponse:   totalResp,
		MaxResponse:     int(rt.mMaxResp.Load()),
		SlowResponses:   rt.mSlowResp.Load(),
		WindowsVerified: rt.mWindows.Load(),
		P50:             rt.scratch.Quantile(0.50),
		P90:             rt.scratch.Quantile(0.90),
		P99:             rt.scratch.Quantile(0.99),
	}
	if completed > 0 {
		s.AvgResponse = float64(totalResp) / float64(completed)
	}
	return s
}
