// Package stream is the event-driven streaming scheduler runtime: the
// online setting of Section 5.2.1 over unbounded arrivals, and (Replay)
// its simulator over finite instances. A Source yields flows in
// non-decreasing release order (generator-driven or trace replay, see
// internal/workload); the Runtime admits them into a bounded pending set,
// asks a Policy for a capacity-feasible selection each round, and retires
// scheduled flows into streaming metrics — running totals plus
// sliding-window response-time quantiles — without ever holding more than
// the admission limit of flows in memory.
//
// Incrementality is the point: the runtime maintains per-port pending
// state — virtual output queues (one FIFO per (input, output) pair) with
// active-port indexes, per-VOQ head-age records (marked stale in O(1),
// refreshed when read), per-port queue depths, and per-round load tallies
// reset via touched lists — updated in O(1) per arrival and departure. A round therefore costs
// O(arrived + scheduled + policy), never a rescan of every flow seen so
// far; with the native RoundRobin policy the policy term is bitmap-word
// operations over the active inputs plus reads of only the VOQs whose
// output still has capacity, independent of the pending count. On unit
// ports (the paper's model) the native unit picks decide the round's
// matching from those bitmaps alone and only then take the matched
// heads, so the flow records a round reads are one independent load per
// pick.
//
// # Policy selection
//
// Every policy implements one contract, Policy: it reads the pending
// set through a View and selects with View.Take. One table (ByName,
// AllNames) holds the paper's three heuristics (PaperNames lists those)
// and four native policies that run at incremental cost and shard (Names
// lists those):
//
//   - RoundRobin: per-input rotation over VOQs in output-port order
//     (iSLIP-style desynchronization) — the cheapest native policy. Each
//     input's active-VOQ bitmap words are AND-ed with a mask of the
//     outputs that still have capacity, so a round reads only VOQs it
//     could serve, and a saturated output costs bitmap operations only.
//     On unit ports a decide pass matches each input to its first such
//     VOQ without reading a flow record, and a commit pass takes the
//     matched heads; elsewhere the sweep drains each VOQ it reaches.
//     Fairness guarantee: port-order rotation, no VOQ overtaken within
//     one rotation of the port space; no age awareness, so no
//     response-time guarantee from the paper.
//   - OldestFirst: serves VOQ heads globally oldest-first (release
//     round, ties in port order) — the paper's MinRTime service
//     discipline (SPAA 2020, Section 5.2: age-priority greedy maximal
//     selection, the ablation of MinRTime's exact matching) on the fast
//     path. At one shard, on unit-demand workloads, each round's
//     selection is round-for-round identical to that greedy rule's
//     O(pending log pending) rescan (property tested). Pick is a
//     function of the View plus a cache rebuilt from it and kept from
//     round to round, in a layout chosen by the switch's shape and the
//     span of pending releases. On
//     unit ports (every capacity 1, the paper's model), while the
//     pending releases span under 1,024 rounds, it is a window of
//     per-release head bitmaps: a round moves the bits of the heads
//     the stale bitmap names, one clear and one set each, then walks
//     the releases oldest first, each free input taking its lowest free
//     output (at 150 ports, 16k resident: some 1.3k input bitmaps
//     examined a round, over 11k heads). Otherwise it is, per input,
//     the active heads sorted by (release, output): a round
//     re-keys the stale heads, then merges the lists oldest release
//     first until the ports are spent. Best for maximum response time;
//     no flow ever starves (a waiting head only gets older until
//     nothing outranks it).
//   - WeightedISLIP: iterative request/grant/accept matching weighted
//     by head-of-queue age with per-port rotation pointers as
//     tie-breakers — the queue-age-weighted crossbar matchings of
//     Liang & Modiano's input-queued-switch analysis. O(active VOQs +
//     scheduled) per round. Like OldestFirst it serves the
//     oldest head where conflicts allow, but resolves port contention
//     by local arbitration instead of a global order — cheaper
//     coordination, the same starvation-freedom (age eventually
//     dominates every tie).
//   - StreamFIFO: admission-order first-fit. O(pending) per round — the
//     non-incremental FIFO baseline of the ablations.
//
// Cost model: RoundRobin reads only VOQs whose output has capacity left
// (a blocked output costs bitmap operations only; a multi-unit head
// larger than what is left costs one record read). On unit ports it
// reads no record before its matching is decided and then one per
// pick, in a commit pass whose loads do not wait on one another, where
// the general sweep waits on each served head's record before it moves
// on; OldestFirst's window commits its matching the same way.
// WeightedISLIP reads every active VOQ's head-age record every round, at
// every shard count, so its cost grows with the resident backlog's
// active-VOQ count while RoundRobin's does not — see the benchmark/ suite's
// quality.<policy>.flows_per_s for the measured ratios. OldestFirst
// reads only what changed: its window or lists persist across rounds, a
// round moves or re-keys the heads the last one served, expired or
// activated, and the pick passes over every head that cannot fit any
// more (capacities only fall in a pick), so it ends long before it has
// examined every head. On unit ports a changed head costs two bit
// operations and the pick ANDs an input's bitmap at a release with the
// free outputs; the lists pay a search and a move per changed head and
// an entry per head passed over, which capacities above one and
// multi-unit demands need. Neither layout can move the schedule: each
// holds exactly the active VOQs' heads (checked against a from-scratch
// build every round in the tests), and the pick's order is the total
// order (release, input, output, seq) a single sorted pass over all of
// them would take.
// The paper's heuristics (MaxCard, MinRTime's exact matching, MaxWeight)
// collect the whole pending set with View.Each every round and match
// over it, or first-fit it on general demands. Replay, the simulator
// every finite instance runs through, is held by the tests to a plain
// batch loop running list-based references of the same rules, flow for
// flow.
//
// Sharding caveat: every native policy is Shardable, but an instance
// only sees its scope's inputs, so cross-input guarantees weaken at
// K > 1. The instances take turns, oldest first, and each serves only its
// own heads: OldestFirst is oldest-first within a scope, not the global
// age-greedy selection, so the MinRTime-style equivalence above is a
// K = 1 property (ages still bound waiting within a scope), and
// WeightedISLIP arbitrates output grants per scope. The paper's heuristics, whose matchings need
// the global pending set, are not Shardable: New refuses them at K > 1.
// Config.Shards defaults to 1, so K > 1 is always an explicit choice.
// Schedules remain bit-deterministic for a fixed K (property tested
// across K in {1, 2, 4}).
//
// # Round phases
//
// One goroutine, the coordinator, owns the round: Runtime.step runs these
// phases in sequence, with no barrier and no hand-off, and a round's
// picks retire in that round. Each names its file and the obs.RoundRecord
// field that times it:
//
//   - Mailbox and periodic checkpoint (durability.go): untimed.
//   - Admission (admit.go): untimed; with nothing pending, the idle wait.
//   - Expiry (admit.go) and the pick (the policy, or at K > 1 the turns
//     policy's ordered turns, shard.go): ProposeNS. ReconcileNS reads 0.
//   - OnSchedule over the still-live taken slots (runtime.go): untimed.
//   - Check (round.go): VerifyNS, with verification on. It runs before
//     retirement, so each record carries its own round's check.
//   - Retirement (round.go): ApplyNS.
//   - Record (runtime.go), then the clock (round.go's setRound, which
//     counts a verification window the clock leaves).
//
// # Sharding
//
// Config.Shards = K > 1 is one policy value, not a second round loop:
// New and Reload wrap the configured policy, which must be Shardable, in
// the turns policy (shard.go) — the K instances NewShard(k) hands out,
// instance k picking through a View scoped to the inputs ≡ k (mod K),
// each Reset at install. OldestFirst keeps its instances on the value,
// so the next runtime built from it reuses their storage. The rest is
// the runtime's one of each: one pending store (one arena, one
// admission-order list, one VOQ per (input, output) pair), which
// admission threads each arrival into directly, as in the paper's online
// model (Section 5.2.1: one pending set that each round's releases
// join); one list of the round's picks, one set of completion metrics,
// one sliding window, one verification scratch and one per-port load
// tally. A scope owns only its list of active inputs, whose order is
// schedule state: RoundRobin and WeightedISLIP visit inputs in it.
// Summary, checkpoints and errors name the configured policy, and a
// checkpoint carries one scratch slice per instance.
//
// Scopes take turns, oldest first. After the expiry walk the turns
// policy orders the scopes by their oldest pending release, ties to the
// lower index, and each instance with a pending flow picks once, in that
// order, against the output capacity the turns before it left. No
// capacity is set aside for a scope, so a round may schedule any set of
// flows whose demand fits every port, as in the paper's model, and a
// flow may fill an output alone whichever scope holds it. The order is
// the same for every policy. Each turn's picks are one run of the
// round's list, which the turns policy moves in behind the runs of the
// lower scopes, so OnSchedule reports, and retire departs, the picks in
// scope index order, then pick order, whatever order the turns ran in.
//
// For a fixed K the schedule is a pure function of the source — replaying
// the same stream at the same shard count reproduces it bit for bit.
// Sharding buys no parallelism, and threads would not pay for it: on the
// benchmark's drain_age_k2 (2-vCPU Xeon), proposes run on a worker pool
// read 1.26 M flows/s at 0.98 CPU-µs per flow, run inline 1.40 M at 0.72.
//
// # Shard-scoped View contract
//
// Inside Pick a View reads the runtime's one store, scoped to its inputs
// where a policy depends on it. Each walks the admission-order list and
// yields only the scope's flows; QueueIn counts the flows at the scope's
// inputs and reads 0 at every other input; NumActiveInputs and
// ActiveInput list only the scope's inputs (the native policies' input
// loops rely on this). IDs are runtime-wide: VOQHead, VOQNext and the
// per-flow reads work at any input, but Take refuses a flow outside the
// scope and fails the run. QueueOut is the switch-wide count. InputFree and OutputFree
// are exact: an input is in one scope, and an output offers what the
// earlier turns of the round left. With Shards == 1 the one scope is the
// whole switch — which is why the paper's heuristics, whose matchings
// need the full pending set, require Shards == 1. Config.OnSchedule is
// always invoked from the coordinator goroutine, so callbacks need no
// locking.
//
// # Admission modes
//
// Config.Admit selects what happens when the pending set reaches
// Config.MaxPending; the accounting invariant
//
//	Admitted == Completed + Pending + Dropped + Expired
//
// holds in every mode, at every Snapshot, so no flow is ever silently
// lost:
//
//   - AdmitLossless (default): the runtime stops draining the source, so
//     arrivals wait inside the source until a departure frees a slot.
//     Admission is lossless and order-preserving, and response times are
//     always charged from the flow's original release round, so queueing
//     delay under overload is visible in the metrics rather than hidden
//     by the admission control. Backpressured counts the late admissions.
//   - AdmitDrop: arrivals that find the pending set full are validated,
//     counted in Admitted and Dropped, and shed without ever entering a
//     queue. The source is always drained at release time — overload
//     costs flows, never feed stalls — which is the right contract for a
//     live network feed that cannot be paused.
//   - AdmitDeadline: admission stays lossless, but each round the runtime
//     expires the pending flows whose age exceeds Config.Deadline rounds
//     (a head walk of the admission-order list — O(expired) per round,
//     exploiting non-decreasing releases), counted in Expired. Completed
//     flows therefore always have MaxResponse <= Deadline: the runtime
//     trades completions for a hard response-time bound.
//
// Drop and expiry decisions are part of the deterministic round protocol
// (drops on the coordinator's admission path, expiry before any pick),
// so for a fixed K the counts replay bit for bit and verification
// windows stay oracle-clean in every mode.
//
// # Sources, live and finite
//
// There is one arrival path, the paper's (Section 5.2.1: each round the
// newly released flows join the pending set, then the policy picks). Every
// round the coordinator admits a held lookahead flow, if it has one, and
// then drains Source.PullBatch — MaxPending minus the resident count at a
// time — until a short batch says nothing more is released; PullBatch
// never blocks. Only when the pending set is empty and nothing is released
// does it ask for one flow whatever its release: Parker.Park(wake) if the
// source offers it, Source.Next otherwise. That flow becomes the lookahead
// and the clock jumps to its release; no flow means the stream has ended
// and so has the run.
//
// A finite source (a generator, a trace, an instance) answers that call at
// once. A concurrently-fed one (workload.ChanSource behind the flowschedd
// daemon) blocks in it until a producer pushes or the feed is closed, so
// "the source has nothing" parks the runtime instead of ending the run —
// with nothing pending there is no round to delay. The runtime does not
// distinguish the two: under lossless admission a full pending set simply
// stops pulling and the feed buffers. Park's wake channel is what keeps a
// parked runtime reachable: Stop, PendingFlows, CheckpointState and Reload
// all nudge it, the park returns without a flow, and the next step serves
// them. A blocking source without Park cannot be woken; closing it is then
// the only way to end its run. Rounds are virtual time — the clock
// advances per scheduling round and jumps on idle gaps — so a live source
// stamps releases itself, from the rounds PullBatch shows it, not from the
// producer.
//
// # Verification
//
// With Config.VerifyEvery > 0 the runtime checks every round through the
// internal/verify oracle as the round closes — every flow scheduled in it,
// with its original release. The paper's feasibility rule is per port per
// round, so the round is the unit of the verdict: a rejected round ends
// the run in that round, and no later round is scheduled. A window of
// VerifyEvery rounds is only a unit of reporting: each window that checked
// a round is counted once in WindowsVerified. Checking keeps the
// unbounded run honest without retaining history. The schedule never
// depends on the verdict.
//
// What a round's check costs. A round's picks are final once OnSchedule
// has reported them, and they retire only after the check, so checkRound
// copies them into the oracle's scratch and the oracle sweeps that one
// round without sorting: one pass for the per-flow checks, one that sums
// the round's demands into a per-port counter array and compares the ports
// it touched with their capacities. The scratch is resliced, never
// appended to. Take picks a flow only while both its ports have room, so a
// round picks at most min(Σ input caps, Σ output caps) flows, and never
// more than MaxPending; New reserves the scratch and the round's list of
// picks at that bound (a Reload that raises MaxPending widens both).
// Verification memory is O(ports) at unit capacities, not O(VerifyEvery ×
// ports): at 150 unit ports that is 150 flows, some 6 KB, whatever the
// window (TestVerifyBufferHoldsOneRound; TestSteadyStateZeroAllocVerify
// counts mallocs over eight windows).
// What remains is a price, not zero: on the benchmark's drain_verified
// workload (150 ports, VerifyEvery = 256, about 150 flows a round) against
// drain_deep, the same flows and schedule unverified, 6 runs of each on a
// 2-vCPU Xeon read medians of 0.193 against 0.166 CPU-µs per flow, 5.19 M
// against 5.85 M flows/s, and 6.15 against 6.14 B per flow: the oracle's
// scratch, reserved once, is a few kilobytes spread over a million flows.
// The oracle's own pass is roughly 15–30 ns a flow whether it sweeps one
// round or a whole window (BenchmarkVerifyWindow in the root package,
// cases "round" and "warm").
//
// Who pays it. The coordinator does, inline (see Round phases); a Runtime
// starts no goroutine. A rejected round still retires and is recorded,
// then step returns "stream: round R failed verification: " and the
// oracle's error, with the clock left on R, so the failed run's state is
// quiescent; Stop or an error return leaves nothing to join. The checks
// land on the round loop's wall time. Overlapping them with later rounds
// on a second goroutine hides them only while a core is spare, spends the
// same CPU, needs a second buffer and reports a bad window one window late
// (ROADMAP.md, "Measured negatives").
//
// # Observability
//
// Config.Recorder attaches an obs.FlightRecorder to the round loop: the
// coordinator writes one RoundRecord per scheduling round — admission,
// scheduling, shedding, and backlog counts plus the wall time of each
// timed phase (see Round phases) — into the recorder's fixed ring with
// zero allocations (an obs.Ring: a reader drops any record the writer may
// have lapped while it copied, unlike the stats.EpochWindow sketches,
// which are a seqlock), and readers drain the last N rounds concurrently
// without ever stalling the writer. The contract:
//
//   - No recorder, no cost. Every clock read is gated on the recorder's
//     presence; an uninstrumented runtime takes zero time.Now calls per
//     round, and the instrumented path is measured against the plain one,
//     with repeats, by the benchmark/ suite (obs.recorder_overhead_pct).
//   - Only scheduling rounds emit, so the recorded round numbers are
//     strictly increasing — idle jumps leave gaps, never duplicates.
//   - Record emission precedes the round-counter publish, so a record
//     for round r is visible no later than a Snapshot that includes r.
//
// Config.ResponseBound > 0 additionally counts completions slower than
// the bound (Summary.SlowResponses, exact, not sketch-resolution) — the
// error term of the daemon's response-time SLO.
//
// # Durability and reload
//
// Everything the runtime can be asked mid-run rides one mechanism: a
// one-slot mailbox of closures the coordinator polls with a single
// non-blocking select at the top of each step, running the closure it
// finds (Runtime.quiesce). That point is quiescent — every pick
// retired, every admitted flow threaded, the summary balanced — so each
// operation is a few lines run there, with no locks on the round path
// and no flow ever observed in two states; before Run has started and
// once it has returned the same closure runs directly on the caller:
//
//   - Runtime.CheckpointState captures a CheckpointState: the pending set
//     in admission order (a walk of the store's admission-order list, so
//     releases are non-decreasing along it and a restore can re-admit it
//     in order), original releases preserved, plus the coordinator's
//     un-admitted lookahead flow if it holds one (it does only between an
//     idle fetch and the next admission pass), the round, and an exact
//     Summary. One function, capture, builds the state for explicit
//     requests, post-run reads and the periodic trigger alike.
//     Config.CheckpointEveryRounds > 0 instead fires OnCheckpoint
//     periodically from the coordinator itself — the cadence check is two
//     integer compares per step, and the rounds between captures stay
//     allocation-free (TestSteadyStateZeroAllocCheckpoint). Each capture
//     is freshly allocated, so OnCheckpoint owns it and may keep it
//     (TestPeriodicCapturesCanBeKept). internal/chkpt serializes the
//     state to atomic, CRC-sealed files, sharing its slices.
//
//   - Config.Resume takes a CheckpointState, and a restored runtime is
//     whole when New returns: the clock reads the checkpointed round, the
//     cumulative counters continue from the checkpointed values, the
//     pending set is resident again — threaded back into the store in
//     checkpointed order and numbered afresh from sequence number 0 (the
//     flows admitted after it continue the count, so OnSchedule's seq
//     counts from the restore), not counted again as admissions or
//     backpressure — and a lookahead flow is held exactly
//     where idle left it. The source carries only the rest of the stream
//     (workload.Skip for a replayable one; a live feed starts empty), so
//     there is no interval after a restart in which the backlog is still
//     arriving: Snapshot, CheckpointState and Reload see the whole
//     restored state at once. Response times stay charged from original
//     releases, and Admitted == Completed + Pending + Dropped + Expired
//     holds across the restart as if it never happened. A checkpoint
//     also carries the policy's schedule-affecting scratch
//     (CheckpointState.Scratch, chkpt format v2) and the window quantile
//     sketches (CheckpointState.Windows, via stats.EpochWindow
//     Export/Import), so a kill -9/restore cycle is schedule-exact for
//     every native policy and window metrics continue instead of
//     restarting empty:
//
//   - StreamFIFO: restore-exact; selection is memoryless given the
//     restored pending order.
//
//   - RoundRobin: restore-exact; the per-input rotation pointers are
//     checkpointed and re-imported (restarting them fresh used to
//     silently change post-restore tie-breaking).
//
//   - OldestFirst: restore-exact; selection is memoryless given the
//     restored pending set. Its window or sorted per-input lists are a
//     cache of the View that the first pick after a restore rebuilds,
//     so there is nothing to checkpoint.
//
//   - WeightedISLIP: restore-exact; the grant and accept rotation
//     pointers are checkpointed and re-imported.
//
//     The crash-equivalence suite in internal/faultinject pins all four
//     policies at one and several shards. A v1 checkpoint file (no
//     scratch, no windows) still restores — scratch-carrying policies
//     then restart their pointers fresh, the pre-v2 behavior.
//
//   - Runtime.Reload swaps the policy and the admission settings
//     (MaxPending, Admit, Deadline) between rounds without dropping the
//     pending set; the new policy's instances are installed and Reset, and
//     the next round schedules under the new configuration. Shrinking
//     MaxPending below the resident count sheds nothing — admission just
//     stays closed until the backlog drains.
//
// A runtime parked on an idle Parker source (workload.ChanSource) is
// woken by a lossy one-slot nudge channel to serve the mailbox — and
// Stop — while the feed is quiet; see Parker. The failure modes are
// exercised by internal/faultinject's deterministic chaos harness, whose
// differential test pins crash equivalence: kill at a checkpoint, restore,
// drain, and the summary and completion multiset match the uninterrupted
// run's.
//
// Runtime.PendingFlows snapshots the resident pending set through the
// same mailbox, so the copy observes a quiescent store mid-run without a
// lock on the round path. Callers bound the wait with the
// context: a runtime blocked in the Next of a source without Park answers
// nothing until a flow arrives (its pending set is empty then anyway).
// The internal/pilot optimality estimator is the canonical consumer.
//
// # Performance model
//
// The round loop is allocation-free at steady state and its memory
// traffic is budgeted per flow, not per data structure:
//
//   - Arena layout. The runtime stores every pending flow, whatever its
//     scope, in one struct-of-arrays arena indexed by flow ID: a 32-byte
//     hot record (release, ports, demand, admission-order links, VOQ
//     links — everything the pick and depart paths touch — with the live
//     and taken bits riding the ports' top bits), two to a cache line and
//     none straddling two, and an 8-byte cold column, the admission
//     sequence number, read only when OnSchedule reports a pick, by
//     View.Each and by a checkpoint capture: 40 bytes per pending flow.
//     Each VOQ's head-age record (release and demand, 16 bytes) is
//     refreshed when it is read, not when the head changes: a head change
//     only sets the VOQ's bit in its input's stale bitmap, and
//     View.headRow copies the stale heads' fields out of their hot
//     records before handing out an input's row. RoundRobin never reads a
//     head record, so it never pays for one; OldestFirst and
//     WeightedISLIP refresh each changed head once per pick; OldestFirst
//     moves its window bits or re-keys its sorted entries from the
//     stale bits, so during a run only the installed policy calls
//     headRow. The VOQ
//     index is not cached; it is in*NumOut + out. IDs recycle through a
//     LIFO free list and the columns grow by doubling, so a ramp to n
//     resident flows allocates about twice the final arena, the arena
//     stops growing once the pending set reaches its high-water mark, and
//     there are no per-flow heap objects, ever.
//   - VOQ storage. Each virtual output queue is a doubly linked list
//     threaded through the arena's hot records, plus a {head, tail}
//     record per VOQ (it is empty when its head is). A push links at the
//     tail, and a departure unlinks in O(1) from anywhere in the queue;
//     only a head change marks the VOQ's head-age record stale. Policies
//     walk a queue from View.VOQHead along View.VOQNext: each step reads
//     the one hot-record line the policy's Taken and Demand checks read
//     anyway. A queue owns no storage, so queue churn never allocates.
//   - Admission. A source delivers each round's released arrivals in
//     one PullBatch call into a reused buffer — interface-call overhead
//     is paid per round, not per flow — and the runtime checks each one
//     in place against switchnet.Switch.Admits, which inlines: no call
//     and no copy of the flow or the switch per admitted flow.
//   - Snapshot epochs. Scalar metrics are atomics written once per
//     round; window quantiles live in stats.EpochWindow, a
//     seqlock ring of preallocated log-histogram shards. Snapshot readers
//     merge with atomic loads and retry on epoch change, so metrics reads
//     never stall the round loop, and the record path (Begin/Observe/End)
//     neither locks nor allocates. Begin finds the round's ring slot once
//     per round, so a retired flow costs one bucket increment.
//
// # Static invariants
//
// The contracts above are compile-time-checked by flowschedvet
// (internal/analysis), the repo's own go vet suite, driven by source
// annotations:
//
//   - //flowsched:hotpath on a function's doc comment requires it — and
//     everything it reaches through static calls — to be free of
//     heap-allocating constructs. The store's admission, departure and
//     expiry (Runtime.admitFlow, depart, expire), the turns policy's Pick
//     and the round's retirement (turns.Pick, Runtime.retire), View.Take,
//     the arena and VOQ list operations, every native policy's Pick, stats.EpochWindow's record path, and
//     obs.FlightRecorder.Record are all roots.
//   - //flowsched:clockgated (this package's mark, below) requires every
//     time.Now/Since/Until to be dominated by a recorder nil check —
//     the "zero clock reads uninstrumented" contract.
//   - //flowsched:deterministic forbids unordered map iteration, global
//     math/rand, and wall-clock input — the cross-K bit-reproducibility
//     contract. internal/core, internal/lp and internal/matching carry
//     the same mark.
//   - Deliberate exceptions carry //flowsched:allow <check>: <why> on
//     the offending line (or a function's doc comment); an allow without
//     a justification is itself a finding.
//
// Run it with `go run ./cmd/flowschedvet ./...`; an unannotated finding
// exits 2, and TestRepoClean runs the same driver over the same packages
// as part of go test ./....
//
//flowsched:clockgated
//flowsched:deterministic
package stream
