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
// Every scoped View reads the same IDs, but only the View whose scope
// holds a flow's input may take it.
type ID = int

// NoID marks the absence of a pending flow.
const NoID ID = -1

// noID is NoID as the runtime's internal int32 link type.
const noID int32 = -1

// Policy selects a capacity-feasible set of pending flows each round by
// calling View.Take. The runtime enforces port capacities inside Take, so
// a policy cannot overload a port; it can only fail to make progress.
//
// At Config.Shards = K > 1 the runtime runs K instances (see Shardable),
// each picking once per round through a View scoped to its inputs, the
// instances taking turns oldest first (see the package docs). Every
// Pick, at any shard count, runs on the goroutine driving Run.
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

// Shardable is implemented by policies that can run at Config.Shards =
// K > 1: the runtime then picks through K instances from NewShard, taking
// turns each round, instance k seeing only the View of the inputs ≡ k
// (mod K). Policies that need the whole pending set each round (the
// paper's heuristics, whose matchings span every port) do not implement
// it, which pins them to Shards == 1.
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

// Config tunes a Runtime.
type Config struct {
	// Switch describes the port structure; all source flows must fit it.
	Switch switchnet.Switch
	// Policy selects flows each round. With Shards > 1 it must implement
	// Shardable, and the runtime picks through its NewShard instances;
	// reports (Summary, checkpoints, errors) still name Policy.
	Policy Policy
	// Shards = K > 1 runs K instances of Policy, instance k picking
	// through a View scoped to the inputs ≡ k (mod K); each round they
	// take turns, oldest first, as the package docs describe. The pending
	// flows stay in the runtime's one store, and the turns run in sequence
	// on the goroutine driving Run, so K changes the schedule, not the
	// parallelism. <= 0 selects 1; the value is always capped at NumIn.
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
	// flow's admission sequence number (its position in admission order,
	// counted from 0 at New; see Resume for a restored runtime's). It
	// is always invoked from the goroutine driving Run, before the round's
	// picks retire: in pick order, and with Shards > 1 in scope index
	// order first, whatever order the turns ran in.
	OnSchedule func(seq int64, f switchnet.Flow, round int)
	// Recorder, when non-nil, receives one obs.RoundRecord per scheduling
	// round, written by the coordinator inside the round loop: per-round
	// arrival/schedule/drop/expiry/pending counts plus per-phase
	// nanoseconds (expire and pick, apply, verify; ReconcileNS is 0).
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
	// resident with its original releases, in the shards it had (not
	// counted again as admissions or backpressure), numbered afresh:
	// OnSchedule's seq counts from 0 at the restore, in checkpointed order
	// and then on. A trailing lookahead flow is the next one admitted.
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
	// coordinator between rounds. The trigger is two integer compares per
	// step with no clock read; a step that captures allocates the
	// capture, and the steps between allocate nothing. Requires
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
// pending store, runs the policy's pick each round, and checks each round
// with the verify oracle as it closes. A Runtime starts no goroutine.
// Snapshot may be called concurrently from other goroutines; it reads
// atomics and the epoch window only, so it never stalls the round loop.
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

	// nextCkpt is the round the next periodic OnCheckpoint capture is due.
	nextCkpt int

	// pol is what picks: Config.Policy at one shard, the turns policy
	// over its instances at several (see shard.go). view is the View pol
	// picks through, and takes holds the round's picks until retire
	// retires them at the end of the same round; reserveRound reserves its
	// capacity.
	nshards int
	pol     Policy
	view    View
	takes   []int32

	// The pending store (see arena.go): one arena, with head/tail
	// delimiting the admission-order list through it; the VOQs, indexed
	// in*mOut+out, and their head-age records; each input's nw-word
	// active-VOQ bitmap, and its stale bitmap of head-age records to
	// refresh on their next read; the pending counts per port; the round's
	// scheduled demand per port, with touchIn/touchOut listing the ports
	// it is nonzero at (reserved at the port counts: Take touches a port
	// once a round); and activeIn[k], the inputs ≡ k (mod nshards) with a
	// pending flow, with each input's index there. The lists' order is
	// schedule state: RoundRobin and WeightedISLIP visit inputs in it.
	ar                arena
	head, tail        int32
	mOut, nw          int
	vqs               []voqState
	heads             []voqHead
	actBits, stale    []uint64
	queueIn, queueOut []int
	loadIn, loadOut   []int
	touchIn, touchOut []int32
	activeIn          [][]int32
	activeInPos       []int32

	// count is the pending count: admitFlow raises it and depart lowers it.
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

	// err is the run's first error, from View.Fail or a refused Take.
	// Take only notes the refused id (refused, refusedID); step formats
	// the error after the picks.
	err       error
	refused   bool
	refusedID ID
	stalled   int

	// Verification state. checkRound copies the round's picks into
	// vFlows/vRounds — the oracle's scratch, which
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
	caps := cfg.Switch.Caps()
	for p, c := range caps {
		side, i := "input", p
		if p >= mIn {
			side, i = "output", p-mIn
		}
		if c <= 0 {
			return nil, fmt.Errorf("stream: %s port %d capacity %d is not positive", side, i, c)
		}
		if c > math.MaxInt32 {
			// Demands ride in the arena's 32-bit descriptor field and are
			// bounded by the port capacities (ValidateFlow).
			return nil, fmt.Errorf("stream: %s port %d capacity %d exceeds the runtime's %d", side, i, c, math.MaxInt32)
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
		cfg:      cfg,
		src:      src,
		sw:       cfg.Switch,
		caps:     caps,
		rec:      cfg.Recorder,
		nshards:  cfg.Shards,
		ctl:      make(chan func(), 1),
		wake:     make(chan struct{}, 1),
		finished: make(chan struct{}),
		win:      stats.NewEpochWindow(cfg.WindowRounds, windowShards),
	}
	rt.parker, _ = src.(Parker)
	rt.view = View{rt: rt}
	rt.initStore(mIn, mOut)
	rt.reserveRound()
	if err := rt.installPolicy(cfg.Policy); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if cfg.Resume != nil {
		if err := rt.restore(cfg.Resume); err != nil {
			return nil, err
		}
	}
	rt.nextCkpt = rt.round + cfg.CheckpointEveryRounds
	return rt, nil
}

// installPolicy makes pol the configured policy: the runtime picks
// through pol itself at one shard and through a turns policy over its
// NewShard instances at several, Reset against the switch.
func (rt *Runtime) installPolicy(pol Policy) error {
	run := pol
	if rt.nshards > 1 {
		sharder, ok := pol.(Shardable)
		if !ok {
			return fmt.Errorf("policy %q cannot run sharded (it does not implement Shardable) and the runtime has %d shards",
				pol.Name(), rt.nshards)
		}
		run = newTurns(rt, sharder)
	}
	if r, ok := run.(Resetter); ok {
		r.Reset(rt.sw)
	}
	rt.pol, rt.cfg.Policy = run, pol
	return nil
}

// step advances the runtime by one iteration — an idle jump or one
// scheduling round — and reports whether the stream is fully drained. It
// runs the round's phases in the order, and under the RoundRecord fields,
// that the package docs list ("Round phases").
func (rt *Runtime) step() (done bool, err error) {
	rt.serveCtl()
	if rt.cfg.CheckpointEveryRounds > 0 && rt.round >= rt.nextCkpt {
		// Two integer compares per step and no clock read, so only a
		// capturing step allocates.
		rt.fireCheckpoint()
	}
	if err := rt.admit(); err != nil {
		return false, err
	}
	if rt.count == 0 {
		return rt.idle()
	}

	t0 := rt.now()
	expired := 0
	if rt.cfg.Deadline > 0 {
		expired = rt.expire()
	}
	if rt.head != noID {
		rt.pol.Pick(&rt.view)
	}
	proposeNS := rt.since(t0)
	if rt.refused {
		rt.err = fmt.Errorf("stream: policy %q took id %d, which is not a pending flow at its shard's inputs", rt.cfg.Policy.Name(), rt.refusedID)
	}
	if rt.err != nil {
		return false, rt.err
	}

	total := len(rt.takes)
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
		// The taken slots retire below, so they are still live here.
		for _, id := range rt.takes {
			cb(rt.ar.seq[id], rt.ar.flow(id), rt.round)
		}
	}
	verifyNS, checkErr := rt.checkRound()
	t0 = rt.now()
	rt.retire()
	applyNS := rt.since(t0)
	if rt.rec != nil {
		// One record per scheduling round (idle jumps emit nothing, so
		// the trace's rounds are strictly increasing), carrying the
		// round's own phases, its check included.
		rt.rec.Record(obs.RoundRecord{
			Round:     int64(rt.round),
			Arrived:   rt.recArrived,
			Scheduled: int64(total),
			Dropped:   rt.recDropped,
			Expired:   int64(expired),
			Pending:   int64(rt.count),
			ProposeNS: proposeNS,
			ApplyNS:   applyNS,
			VerifyNS:  verifyNS,
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

// now reads the clock for a phase time when a recorder is attached and
// returns the zero time otherwise, so a runtime without one reads no
// clock; since returns the phase's nanoseconds from now's t0, or 0.
func (rt *Runtime) now() time.Time {
	if rt.rec == nil {
		return time.Time{}
	}
	return time.Now()
}

func (rt *Runtime) since(t0 time.Time) int64 {
	if rt.rec == nil {
		return 0
	}
	return time.Since(t0).Nanoseconds()
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
	if rt.err != nil {
		return nil, rt.err
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
