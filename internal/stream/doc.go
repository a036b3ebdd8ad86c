// Package stream is the event-driven streaming scheduler runtime: the
// unbounded-arrival counterpart of internal/sim. A Source yields flows in
// non-decreasing release order (generator-driven or trace replay, see
// internal/workload); the Runtime admits them into a bounded pending set,
// asks a Policy for a capacity-feasible selection each round, and retires
// scheduled flows into streaming metrics — running totals plus
// sliding-window response-time quantiles — without ever holding more than
// the admission limit of flows in memory.
//
// Incrementality is the point: the runtime maintains per-port pending
// state — virtual output queues (one FIFO per (input, output) pair) with
// active-port indexes, per-VOQ head-age records, per-port queue depths,
// and per-round load tallies reset via touched lists — updated in O(1)
// per arrival and departure. A round therefore costs
// O(arrived + scheduled + policy), never a rescan of every flow seen so
// far; with the native RoundRobin policy the policy term is bitmap-word
// operations over the active inputs plus reads of only the VOQs whose
// output still has capacity, independent of the pending count.
//
// # Policy selection
//
// One table (ByName, AllNames) holds the paper's three heuristics,
// bridged, and four native policies that run at incremental cost and
// shard (Names lists those):
//
//   - RoundRobin: per-input rotation over VOQs in output-port order
//     (iSLIP-style desynchronization) — the cheapest native policy. Each
//     input's active-VOQ bitmap words are AND-ed with a mask of the
//     outputs that still have capacity, so a round reads only VOQs it
//     could serve, and a saturated output costs bitmap operations only.
//     Fairness guarantee: port-order rotation, no VOQ overtaken within
//     one rotation of the port space; no age awareness, so no
//     response-time guarantee from the paper.
//   - OldestFirst: serves VOQ heads globally oldest-first (release
//     round, ties in port order) — the paper's MinRTime service
//     discipline (SPAA 2020, Section 5.2: age-priority greedy maximal
//     selection, the ablation of MinRTime's exact matching) on the fast
//     path. At one shard, on unit-demand workloads, each round's
//     selection is round-for-round identical to bridging that greedy rule
//     (property tested), instead of an O(pending log pending) rescan. A
//     round reads O(input ports + active VOQs) head-age records and
//     orders and scans only the oldest slice of them, in stages:
//     O(candidates + release range) per stage, about 16 candidates per
//     unit of free input capacity in the first, the ports still free
//     after it in the rest (measured at 150 ports, 16k resident: 3.7k
//     of 10.8k heads ordered, 2.4 stages a round). Best for maximum
//     response time; no flow ever starves (a waiting head only gets
//     older until nothing outranks it).
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
// larger than what is left costs one record read); OldestFirst and
// WeightedISLIP read every active VOQ's head-age record every round, at
// every shard count (that is what an age-aware selection has to look
// at; nothing is carried between rounds), so their cost grows with the
// resident backlog's active-VOQ count while RoundRobin's does not — see
// the benchmark/ suite's quality.<policy>.flows_per_s for the measured
// ratios. Reading is the cheap part. What OldestFirst no longer does is
// order and scan every record it read: a greedy pick saturates nearly
// every port within the oldest few candidates per port, so it cuts the
// release range where about 16 candidates per unit of free capacity
// lie below, orders and serves those, and then re-reads only the rows
// of inputs that still have capacity, masked to the outputs that do.
// The cuts cannot move the schedule. The stages' release ranges are
// disjoint and ascending, so their concatenation is the same total
// order (release, input, output); and a head no stage materialises has
// a port that was already spent when that stage began — capacities only
// fall during a pick, so the single-pass scan would have skipped it too.
// The bridged heuristics (MaxCard, MinRTime's exact matching, MaxWeight)
// run through Bridge at a full per-round rescan of the pending set.
// Replay, the simulator every finite instance runs through, is held to a
// plain batch loop by the tests, flow for flow.
//
// Sharding caveat: every native policy is Shardable, but a shard only
// sees its own inputs, so cross-input guarantees weaken at K > 1. The
// shards take turns, oldest first, and each serves only its own heads:
// OldestFirst is oldest-first within a shard, not the global age-greedy
// selection, so the MinRTime-style equivalence above is a K = 1 property
// (ages still bound waiting within a shard), and WeightedISLIP arbitrates
// output grants per shard. Bridge (needing the global pending set)
// refuses to shard at all. Config.Shards defaults to 1, so K > 1 is
// always an explicit choice. Schedules remain bit-deterministic for a
// fixed K (property tested across K in {1, 2, 4}).
//
// # Sharding
//
// Config.Shards > 1 partitions the input ports across K shards: input i
// belongs to shard i mod K. A shard owns a policy instance
// (Shardable.NewShard), the count and active-input list of its pending
// flows and its round's picks. The pending flows themselves stay in the
// runtime's one store — one arena, one admission-order list, one VOQ per
// (input, output) pair — which admission threads each arrival into
// directly, as in the paper's online model (Section 5.2.1: one pending
// set that each round's releases join). The shards are not threads. The
// coordinator runs every shard's part of a round itself, in sequence,
// and the runtime keeps one set of completion metrics, one sliding
// window, one verification buffer and one per-port load tally for all of
// them.
//
// Shards take turns, oldest first. After the expiry walk the coordinator
// orders the shards by their oldest pending release, ties to the lower
// index, and each shard picks once, in that order, against the output
// capacity the shards before it left. No capacity is set aside for a
// shard, so a round may schedule any set of flows whose demand fits every
// port, as in the paper's model, and a flow may fill an output alone
// whichever shard holds it. The order is the same for every policy.
//
// OnSchedule then reports the round's picks, and every shard retires
// them — departures, metrics, verification buffering — before the round
// ends. For a fixed K the schedule is a pure function of the source —
// replaying the same stream at the same shard count reproduces it bit for
// bit. Sharding buys no parallelism, and threads would not pay for it: on
// the benchmark's drain_age_k2 (2-vCPU Xeon), proposes run on a worker
// pool read 1.26 M flows/s at 0.98 CPU-µs per flow, run inline 1.40 M at
// 0.72.
//
// # Shard-scoped View contract
//
// Inside Pick a View reads the runtime's one store, scoped to the calling
// shard where a policy depends on it. Each walks the admission-order list
// and yields only the shard's flows; QueueIn counts the shard's flows at
// its own inputs and reads 0 at every other input (OldestFirst's input
// loop relies on this); NumActiveInputs and ActiveInput list only the
// shard's inputs. IDs are runtime-wide: VOQHead, VOQNext and the per-flow
// reads work at any input, but Take refuses a flow at another shard's
// input and fails the run. QueueOut is the switch-wide count. InputFree
// and OutputFree are exact: an input is owned, and an output offers what
// the shards that took their turn earlier in the round left. With
// Shards == 1 a single shard owns everything and the View is the
// pre-sharding contract — which is why bridged simulator policies (see
// Bridge), whose matchings need the full pending set, require
// Shards == 1.
//
// Config.OnSchedule is always invoked from the coordinator goroutine, in
// shard index order within a round, so callbacks need no locking.
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
// (drops on the coordinator's admission path, expiry before any shard
// picks), so for a fixed K the counts replay bit for bit and verification
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
// With Config.VerifyEvery > 0 the runtime feeds each completed window of
// rounds — every flow scheduled in those rounds, with original releases —
// through the internal/verify oracle, aborting the run on the first
// infeasible window. Spot-checking keeps the unbounded run honest without
// retaining history. The schedule never depends on the verdict.
//
// What a window costs. Each shard copies a flow and its round into the
// runtime's verification buffer as it retires the flow. Every round
// retires before the next begins, so the buffer is in round order and the
// oracle sweeps it without sorting: one pass for the per-flow checks, one
// that sums each round's demands into a per-port counter array and
// compares the ports the round touched with their capacities. At the
// flush the coordinator swaps the buffer with the one the verifier has
// finished with, grown to the flushed window's length. That is O(flows in
// the window) time and O(flows + ports) memory — the two window buffers
// and the oracle's verify.Checker, all owned by the runtime and reused —
// so after the buffers have grown to the largest window a flush allocates
// nothing (TestSteadyStateZeroAllocVerify counts mallocs over eight
// windows). What remains is a price, not zero: on the benchmark's
// drain_verified workload (150 ports, VerifyEvery = 256, about 38 k flows
// a window) against drain_deep, the same flows and schedule unverified,
// alternated runs on a 2-vCPU Xeon read 0.46 against 0.42 CPU-µs per flow
// (+9 %) and 33.4 against 22.0 B per flow, the extra bytes being one fresh
// runtime's buffer growth spread over a million flows.
//
// Who pays it. The check runs on one verifier goroutine, stopped — and
// waited for — when Run returns, however it returns. The coordinator
// hands it window w and goes on with the
// rounds of window w+1; it collects the verdict at the next flush (or the
// end of the run), so a failure surfaces one window late, labelled with
// the first and last round its flows were really scheduled in. The
// overlap hides the oracle's pass from flows_per_s only when a core is
// spare for it; the buffering is on the round loop either way, and the
// CPU is spent whether or not anyone waits for it.
//
// # Observability
//
// Config.Recorder attaches an obs.FlightRecorder to the round loop: the
// coordinator writes one RoundRecord per scheduling round — admission,
// scheduling, shedding, and backlog counts plus per-phase wall time —
// into the recorder's fixed ring with zero allocations (an obs.Ring: a
// reader drops any record the writer may have lapped while it copied,
// unlike the stats.EpochWindow sketches, which are a seqlock), and
// readers drain the last N rounds concurrently without ever stalling
// the writer. The contract:
//
//   - No recorder, no cost. Every clock read is gated on the recorder's
//     presence; an uninstrumented runtime takes zero time.Now calls per
//     round, and the instrumented path is measured against the plain
//     one, with repeats, by the benchmark/ suite
//     (obs.recorder_overhead_pct).
//   - Phase semantics. ProposeNS times the expiry walk and every shard's
//     pick (the admission pass, which threads arrivals into the pending
//     store, is in no phase), ReconcileNS the ordering of the shards'
//     turns (0 at K = 1), ApplyNS the round's own retirement, and
//     VerifyNS only the blocking join on the verify oracle — overlap with
//     the next window's rounds is the oracle's normal, invisible case.
//     The join lands between scheduling rounds and is charged to the next
//     emitted record.
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
//     in order),
//     original releases preserved, plus the coordinator's un-admitted
//     lookahead flow if it holds one (it does only between an idle fetch
//     and the next admission pass), the round, and an exact Summary. One
//     function, capture, builds the state for explicit requests, post-run
//     reads and the periodic trigger alike.
//     Config.CheckpointEveryRounds > 0 instead fires OnCheckpoint
//     periodically from the coordinator itself — the cadence check is two
//     integer compares per round, capture reuses runtime-owned buffers,
//     and the steady-state loop stays allocation-free (covered by
//     TestSteadyStateZeroAllocCheckpoint). internal/chkpt serializes the
//     state to atomic, CRC-sealed files.
//
//   - Config.Resume takes a CheckpointState, and a restored runtime is
//     whole when New returns: the clock reads the checkpointed round, the
//     cumulative counters continue from the checkpointed values, the
//     pending set is resident again — threaded back into the store under
//     the admission sequence numbers it had, not counted again as
//     admissions or backpressure — and a lookahead flow is held exactly
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
//     restored pending set. Its staged pick chooses its cuts from the
//     View each round and keeps no candidate index between rounds, so
//     there is still nothing to checkpoint.
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
//     pending set; per-shard policy instances are rebuilt and Reset, and
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
//     shard, in one struct-of-arrays arena indexed by flow ID: a 40-byte
//     hot record (release, ports, demand, state bits, admission-order
//     links, VOQ links — everything the pick and depart paths touch) and
//     an 8-byte cold column, the admission sequence number, read only
//     when OnSchedule reports a pick, by View.Each and by a checkpoint
//     capture. Each VOQ's head-age record (release and demand, 16 bytes)
//     is mirrored from the hot record when the head changes, so a head
//     change never touches the cold column. The VOQ index is not cached;
//     it is in*NumOut + out. IDs recycle through a LIFO free list, so the
//     arena stops growing once the pending set reaches its high-water
//     mark and there are no per-flow heap objects, ever.
//   - VOQ storage. Each virtual output queue is a doubly linked list
//     threaded through the arena's hot records, plus a {head, tail,
//     length} record per VOQ. A push links at the tail, and a departure
//     unlinks in O(1) from anywhere in the queue; only a head departure
//     refreshes the VOQ's head-age record. Policies sweep a queue through
//     View.EachVOQ, which follows the successor links: the one
//     hot-record line per flow that the policy's Taken and Demand checks
//     read anyway. A queue owns no storage, so queue churn never
//     allocates.
//   - Round schedule. One goroutine owns the round: the coordinator
//     orders the shards' turns (sharded runtimes only), runs each shard's
//     pick in that order, then the OnSchedule callbacks over the
//     still-live taken slots and each shard's retirement, in sequence. There is no barrier and no hand-off, and
//     nothing carries over: a round's picks retire in that round.
//   - Admission. A source delivers each round's released arrivals in
//     one PullBatch call into a reused buffer — interface-call overhead
//     is paid per round, not per flow.
//   - Snapshot epochs. Scalar metrics are atomics written once per shard
//     per round; window quantiles live in stats.EpochWindow, a
//     seqlock ring of preallocated log-histogram shards. Snapshot readers
//     merge with atomic loads and retry on epoch change, so metrics reads
//     never stall the round loop, and the record path (Begin/Observe/End)
//     neither locks nor allocates.
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
//     expiry (Runtime.admitFlow, depart, expire), a shard's round
//     (shard.pick, apply), View.Take, the arena and VOQ list operations,
//     every native policy's Pick, stats.EpochWindow's record path, and
//     obs.FlightRecorder.Record are all roots.
//   - //flowsched:clockgated (this package's mark, below) requires every
//     time.Now/Since/Until to be dominated by a recorder nil check —
//     the "zero clock reads uninstrumented" contract.
//   - //flowsched:deterministic forbids unordered map iteration, global
//     math/rand, and wall-clock input — the cross-K bit-reproducibility
//     contract. internal/sim, internal/core, internal/lp and
//     internal/matching carry the same mark.
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
