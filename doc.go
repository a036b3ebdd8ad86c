// Package flowsched is a Go implementation of the algorithms from
// "Scheduling Flows on a Switch to Optimize Response Times" (Jahanjou,
// Rajaraman, Stalfa; SPAA 2020, arXiv:2005.09724).
//
// A datacenter network is modelled as a single non-blocking switch: a
// bipartite graph with a capacity at every input and output port. Flow
// requests are edges with a demand and a release round; in each round the
// scheduled flows must respect every port's capacity. The package provides:
//
//   - FS-ART (average response time): SolveART, the (1+c, O(log n)/c)
//     resource-augmented approximation of Theorem 1, built on iterative LP
//     rounding and Birkhoff-von Neumann decomposition, plus the LP lower
//     bound ARTLowerBound (Lemma 3.1) and the combinatorial SRPTLowerBound.
//
//   - FS-MRT (maximum response time): SolveMRT, the optimal schedule with
//     per-port capacity increase at most 2*d_max-1 of Theorem 3, built on
//     the time-constrained LP and the Karp et al. rounding theorem;
//     SolveTimeConstrained generalizes to per-flow deadlines (Remark 4.2).
//
//   - Online scheduling (Section 5): the batched AMRT algorithm of
//     Lemma 5.3 (OnlineAMRT) and the simulation heuristics MaxCard,
//     MinRTime and MaxWeight evaluated in Figures 6 and 7 (Simulate over
//     Policies, or one of them from PolicyByName).
//
//   - The paper's workload model (GeneratePoisson: Poisson arrivals on an
//     m x m switch) and its lower-bound gadgets (Fig4a, Fig4b); the
//     permutation, hotspot, heavy-tailed and trace workloads are behind
//     `flowsim gen` and the scenario engine.
//
//   - Coflows (SimulateCoflows): groups of flows that complete together,
//     under the Varys-style policies CoflowSEBF, CoflowSCF and CoflowFIFO.
//
//   - A schedule verifier (CheckSchedule, CheckScaled, CheckAugmented):
//     an independent feasibility oracle that re-derives port-capacity
//     feasibility under a stated augmentation, full demand delivery, and
//     release-time respect, and recomputes all response-time metrics from
//     the raw assignment.
//
//   - A scenario engine (RunSweep over a DefaultSweep): a sharded,
//     deterministic sweep harness that crosses any registered solver (the
//     offline algorithms, the online heuristics, the coflow policies) with
//     any workload generator on a bounded worker pool. Every scenario
//     carries its own derived seed — the same seed yields an identical
//     result table at any worker count — and every schedule is checked by
//     the verify oracle before its metrics enter the table.
//
//   - A streaming scheduler runtime (NewStreamRuntime): the online setting
//     extended to unbounded arrival processes. Flows arrive from a
//     StreamSource (NewInstanceSource replays a finite instance,
//     NewChanSource is fed concurrently; internal/workload also has
//     Poisson/bounded-Pareto generators and streaming CSV trace replay,
//     behind `flowsim stream`), pass admission control into a bounded
//     pending set, and drain under a StreamPolicy. Admission at the
//     MaxPending limit is StreamConfig.Admit: lossless backpressure on the
//     source (default; queueing delay stays visible in the metrics because
//     response times are always charged from the original release round),
//     shedding (shed arrivals counted in Dropped), or deadline expiry
//     (pending flows past the Deadline bound expire, capping the response
//     time of everything that completes); in every mode Admitted ==
//     Completed + Pending + Dropped + Expired. Runs are cancelable (Stop,
//     RunContext) with the final summary still balancing. One table
//     (StreamPolicyByName) holds the paper's heuristics, bridged, and
//     four native policies at incremental cost: RoundRobin
//     (StreamRoundRobin) serves per-(input,output) virtual output queues
//     with iSLIP-style per-input pointers rotating in output-port order;
//     OldestFirst serves VOQ heads globally oldest-first — the paper's
//     MinRTime age-priority discipline on the fast path, property-tested
//     round-for-round equivalent to bridging the corresponding greedy
//     rule on unit-demand replays at one shard; WeightedISLIP runs
//     queue-age-weighted request/grant/accept matching with
//     rotation-pointer tie-breaks; StreamFIFO is the admission-order
//     baseline. internal/stream's Bridge runs any simulator heuristic on
//     the stream unchanged; Simulate and the figures replay finite
//     instances through the runtime. StreamConfig.Shards (default 1; more
//     is an explicit opt-in that changes the schedule and weakens the
//     cross-input guarantees, see internal/stream's "Sharding caveat")
//     partitions the input ports across shards: the pending flows stay in
//     the runtime's one store, each shard picks among its inputs' queues,
//     and the shards take turns each round, oldest pending release
//     first, each against the output capacity the ones before it left —
//     all on the coordinator's goroutine (a partition, not a thread
//     pool), so a run is reproducible at any fixed shard count; the
//     round loop is allocation-free at steady state. Metrics are streaming
//     (StreamSummary: running totals plus sliding-window response-time
//     quantiles from a mergeable log-histogram sketch), VerifyEvery feeds
//     each completed window of rounds through the verify oracle, so even
//     unbounded runs are spot-checked for feasibility, and a
//     FlightRecorder (NewFlightRecorder) attached through
//     StreamConfig.Recorder keeps the last rounds' RoundRecords.
//
//   - A scheduler daemon (cmd/flowschedd, internal/daemon): the streaming
//     runtime as a long-running HTTP/JSON service. POST /flows decodes
//     a body of the canonical shape {"flows":[{"in":0,"out":1,"demand":1}]}
//     in one pass (any other valid JSON takes encoding/json, slower),
//     validates the batch atomically at the door and hands it whole, as
//     one slice, to a concurrently fed ChanSource; GET /metrics serves
//     the Prometheus text exposition from the runtime's lock-free
//     snapshot path, GET /snapshot returns
//     the live StreamSummary as JSON, and POST /drain (or SIGTERM)
//     gracefully finishes the backlog and returns the final summary with
//     nothing left pending. The daemon is crash-safe (internal/chkpt):
//     -checkpoint persists quiescent checkpoints — atomic, CRC-sealed,
//     version-stamped — on POST /checkpoint, on a periodic cadence, and
//     after the final drain; -restore resumes from one with the pending
//     set resident at its original releases and every cumulative counter
//     continuous across a kill -9 before the first request is served.
//     POST /reload (or SIGHUP) swaps the policy and admission settings
//     between rounds without dropping a single pending flow. The crash
//     and corruption paths are exercised by a deterministic fault-
//     injection harness (internal/faultinject) whose differential test
//     pins kill/restore runs to byte-identical accounting against
//     uninterrupted ones.
//
//   - Observability (internal/obs, internal/slo, internal/pilot): a
//     round flight recorder — a fixed single-writer ring of per-round
//     records (counts plus per-phase timings) written by the round loop
//     with zero allocations and zero cost when absent, read concurrently,
//     served as JSONL (GET /trace, flowsim -roundlog) and as sliding
//     per-phase histograms in GET /metrics; a multi-window burn-rate SLO
//     engine (fast window pages, slow window warns) over declarative
//     delivery and response-bound targets, driving flowsched_slo_* gauges,
//     GET /slo, and healthz degradation; and an optimality pilot that
//     replays the live runtime's completion window and pending-set
//     snapshots through the paper's lower bounds (SRPTLowerBound and
//     internal/core's trivial maximum-response bound) to publish live
//     competitive-ratio estimates (GET /pilot) that are always >= 1 by
//     restriction-feasibility.
//
//   - A static invariant suite (cmd/flowschedvet, internal/analysis):
//     five custom static analyzers — hotpath (zero allocation on
//     //flowsched:hotpath call graphs), gatedclock (wall-clock reads
//     gated on the flight recorder), atomicfield (shared words are
//     typed atomics: no sync/atomic function calls, no by-value copies),
//     determinism (no map-order, global-rand, or clock
//     input in schedule-affecting packages), reach (every package-level
//     declaration is reached from a binary, the root package's exports
//     or a //flowsched:testonly mark) — that make the runtime's
//     performance contracts compile-time-checkable; see the "Static
//     invariants" section of internal/stream's package doc.
//
// The LP solver, capacitated matchings, edge coloring, rounding theorem, and
// simulator are all implemented in this repository with no external
// dependencies. The paper's figures and theorem tables are reproduced by
// the artifact registry of internal/experiments, run with
// `flowsim paper -fig KEY`; cmd/flowsim is the one command-line front door
// to the offline algorithms (`flowsim art`, `flowsim mrt`), the instance
// generators (`flowsim gen`), the simulator and the streaming runtime.
package flowsched
