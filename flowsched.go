package flowsched

import (
	"math/rand"

	"flowsched/internal/coflow"
	"flowsched/internal/core"
	"flowsched/internal/engine"
	"flowsched/internal/heuristics"
	"flowsched/internal/obs"
	"flowsched/internal/sim"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
	"flowsched/internal/workload"
)

// Core model types (see internal/switchnet for full documentation).
type (
	// Switch is a non-blocking switch: capacitated input and output ports.
	Switch = switchnet.Switch
	// Flow is a flow request: input port, output port, demand, release.
	Flow = switchnet.Flow
	// Instance couples a switch with flow requests.
	Instance = switchnet.Instance
	// Schedule assigns each flow to a single round.
	Schedule = switchnet.Schedule
)

// NewSwitch returns an m x m' switch with uniform port capacity cap.
func NewSwitch(m, mPrime, cap int) Switch { return switchnet.NewSwitch(m, mPrime, cap) }

// UnitSwitch returns an m x m switch with unit capacities (the paper's
// experimental configuration).
func UnitSwitch(m int) Switch { return switchnet.UnitSwitch(m) }

// ScaleCaps multiplies capacities by factor (resource augmentation "(1+c)x").
func ScaleCaps(caps []int, factor int) []int { return switchnet.ScaleCaps(caps, factor) }

// Offline algorithm results.
type (
	// ARTResult is the outcome of SolveART (Theorem 1).
	ARTResult = core.ARTResult
	// MRTResult is the outcome of SolveMRT (Theorem 3 + binary search).
	MRTResult = core.MRTResult
	// TimeConstrainedResult is the outcome of SolveTimeConstrained.
	TimeConstrainedResult = core.TimeConstrainedResult
	// AMRTResult is the outcome of OnlineAMRT (Lemma 5.3).
	AMRTResult = core.AMRTResult
	// ARTLowerBoundResult carries the LP (1)-(4) bound of Lemma 3.1.
	ARTLowerBoundResult = core.ARTLowerBoundResult
	// Windows lists each flow's admissible rounds for time-constrained
	// scheduling.
	Windows = core.Windows
	// PseudoSchedule is the Lemma 3.3 iterative-rounding output.
	PseudoSchedule = core.PseudoSchedule
)

// ErrInfeasible is returned when no schedule meets the requested windows.
var ErrInfeasible = core.ErrInfeasible

// SolveART computes a schedule for a unit-demand instance whose average
// response time is within (1 + O(log n)/c) of optimal using port capacities
// scaled by 1+c (Theorem 1).
func SolveART(inst *Instance, c int) (*ARTResult, error) { return core.SolveART(inst, c) }

// SolveMRT computes a schedule achieving the optimal maximum response time
// with every port capacity increased by at most 2*d_max-1 (Theorem 3).
func SolveMRT(inst *Instance) (*MRTResult, error) { return core.SolveMRT(inst) }

// SolveTimeConstrained schedules every flow inside its window or reports
// ErrInfeasible; port capacities are exceeded by at most 2*d_max-1
// (Theorem 3, including the deadline model of Remark 4.2).
func SolveTimeConstrained(inst *Instance, win Windows) (*TimeConstrainedResult, error) {
	return core.SolveTimeConstrained(inst, win)
}

// DeadlineWindows builds windows [r_e, deadline_e] for every flow.
func DeadlineWindows(inst *Instance, deadline []int) (Windows, error) {
	return core.DeadlineWindows(inst, deadline)
}

// ARTLowerBound solves LP (1)-(4), a lower bound on any schedule's total
// response time (Lemma 3.1); Figure 6's baseline.
func ARTLowerBound(inst *Instance) (*ARTLowerBoundResult, error) { return core.ARTLowerBound(inst) }

// MRTLowerBound returns the smallest rho whose LP (19)-(21) relaxation is
// feasible; Figure 7's baseline.
func MRTLowerBound(inst *Instance) (int, error) { return core.MRTLowerBound(inst) }

// SRPTLowerBound is a cheap combinatorial lower bound on total response
// time via per-port preemptive SRPT relaxations.
func SRPTLowerBound(inst *Instance) int { return core.SRPTLowerBound(inst) }

// IterativeRound exposes the Lemma 3.3 pseudo-schedule construction.
func IterativeRound(inst *Instance) (*PseudoSchedule, error) { return core.IterativeRound(inst) }

// OnlineAMRT runs the online batching algorithm of Lemma 5.3: maximum
// response at most twice the final guess, capacities 2*(c_p+2*d_max-1).
func OnlineAMRT(inst *Instance) (*AMRTResult, error) { return core.OnlineAMRT(inst) }

// AMRTCaps returns the augmented capacities OnlineAMRT schedules within.
func AMRTCaps(inst *Instance) []int { return core.AMRTCaps(inst) }

// Simulation types (see internal/sim).
type (
	// Policy is an online per-round scheduling heuristic.
	Policy = sim.Policy
	// SimResult summarizes one simulation run.
	SimResult = sim.Result
)

// Simulate runs the online simulator of Section 5.2.1 with the policy.
func Simulate(inst *Instance, pol Policy) (*SimResult, error) {
	res, _, err := stream.Replay(inst, stream.Config{Policy: &stream.Bridge{P: pol}})
	return res, err
}

// Two of the paper's heuristics (Section 5.2) by value; PolicyByName
// resolves these and MinRTime.
var (
	// MaxCard extracts a maximum-cardinality matching every round.
	MaxCard Policy = heuristics.MaxCard{}
	// MaxWeight extracts a maximum-weight matching by queue sizes.
	MaxWeight Policy = heuristics.MaxWeight{}
)

// Policies returns the three heuristics evaluated in Figures 6 and 7:
// MaxCard, MinRTime and MaxWeight.
func Policies() []Policy { return heuristics.All() }

// PolicyByName resolves one of the paper's heuristics through the stream
// policy table; nil if name is unknown or a native streaming policy.
func PolicyByName(name string) Policy {
	if b, ok := stream.ByName(name).(*stream.Bridge); ok {
		return b.P
	}
	return nil
}

// PoissonConfig is the paper's workload model: Poisson(M) uniform flows
// per round for T rounds on a Ports x Ports switch.
type PoissonConfig = workload.PoissonConfig

// GeneratePoisson draws an instance from the paper's workload model.
func GeneratePoisson(cfg PoissonConfig, rng *rand.Rand) *Instance { return cfg.Generate(rng) }

// Fig4a builds the Lemma 5.1 online lower-bound gadget.
func Fig4a(T, M int) *Instance { return workload.Fig4a(T, M) }

// Fig4b builds the Lemma 5.2 online lower-bound gadget.
func Fig4b() *Instance { return workload.Fig4b() }

// Coflow extension (the Section 6 "generalizations" direction): groups of
// flows that complete together, with Varys-style online policies.
type (
	// Coflow is a group of flows released together; it completes when
	// its last member does.
	Coflow = coflow.Coflow
	// CoflowInstance is a coflow scheduling instance.
	CoflowInstance = coflow.Instance
	// CoflowResult carries coflow-level response metrics.
	CoflowResult = coflow.Result
)

// SimulateCoflows flattens the coflow instance and runs a coflow policy:
// one of CoflowSEBF, CoflowSCF, or CoflowFIFO.
func SimulateCoflows(in *CoflowInstance, mk func(owner []int) Policy) (*CoflowResult, *SimResult, error) {
	return coflow.Run(in, mk)
}

// CoflowSEBF is the smallest-effective-bottleneck-first policy (Varys).
func CoflowSEBF(owner []int) Policy { return coflow.SEBF(owner) }

// CoflowSCF is the smallest-total-size-first policy.
func CoflowSCF(owner []int) Policy { return coflow.SCF(owner) }

// CoflowFIFO schedules coflows in release order.
func CoflowFIFO(in *CoflowInstance) func(owner []int) Policy {
	return func(owner []int) Policy { return coflow.FIFO(in, owner) }
}

// Schedule verification (see internal/verify): the independent feasibility
// oracle every engine scenario and experiment figure runs through.
type VerifyReport = verify.Report

// CheckSchedule validates sched against inst under per-port capacities
// caps (global index order) and recomputes the response-time metrics. It
// returns a non-nil error iff the schedule is not a real schedule for the
// instance under caps; a flow whose ports are not on the switch or whose
// demand is not positive is reported as a violation like any other.
func CheckSchedule(inst *Instance, sched *Schedule, caps []int) (*VerifyReport, error) {
	return verify.CheckSchedule(inst, sched, caps)
}

// CheckScaled checks sched under capacities scaled by factor (Theorem 1's
// "(1+c)x" augmentation).
func CheckScaled(inst *Instance, sched *Schedule, factor int) (*VerifyReport, error) {
	return verify.CheckScaled(inst, sched, factor)
}

// CheckAugmented checks sched under capacities increased by delta
// (Theorem 3's "+2*d_max-1" augmentation).
func CheckAugmented(inst *Instance, sched *Schedule, delta int) (*VerifyReport, error) {
	return verify.CheckAugmented(inst, sched, delta)
}

// Scenario engine (see internal/engine): a sharded, deterministic sweep
// harness that runs any registered solver against any workload generator
// and verifies every schedule with the oracle.
type (
	// SweepConfig crosses solvers with generators over seeded trials.
	SweepConfig = engine.SweepConfig
	// ResultTable is a sweep's verdict table (Render, WriteCSV).
	ResultTable = engine.ResultTable
)

// Streaming scheduler runtime (see internal/stream): the online setting of
// Section 5.2.1 extended to unbounded arrival processes — flows arrive from
// a Source, pass admission control into a bounded pending set, and drain
// under an incremental policy with sliding-window metrics and windowed
// spot-check verification.
type (
	// StreamSource yields flows in non-decreasing release order, a round's
	// worth at a time through PullBatch or one at a time through Next.
	StreamSource = stream.Source
	// StreamBatchSource is StreamSource under the name benchmark/ uses
	// for it.
	StreamBatchSource = StreamSource
	// StreamPolicy selects a capacity-feasible pending subset each round.
	StreamPolicy = stream.Policy
	// StreamView is a policy's window onto the runtime's per-port state.
	StreamView = stream.View
	// StreamConfig tunes shard count, admission control, metric windows,
	// and verification cadence.
	StreamConfig = stream.Config
	// StreamRuntime drains a source round by round in bounded memory.
	// Run blocks until the source drains (or Stop/RunContext cancels it);
	// Snapshot reads live metrics from any goroutine.
	StreamRuntime = stream.Runtime
	// StreamSummary is a point-in-time view of the streaming metrics.
	StreamSummary = stream.Summary
	// StreamCheckpointState is a quiescent snapshot of a run — the pending
	// set in admission order with original releases, the round, and exact
	// counters — captured by Runtime.CheckpointState; internal/chkpt
	// serializes it to atomic CRC-sealed files.
	StreamCheckpointState = stream.CheckpointState
)

// NewStreamRuntime builds a streaming runtime over src.
func NewStreamRuntime(src StreamSource, cfg StreamConfig) (*StreamRuntime, error) {
	return stream.New(src, cfg)
}

// Round flight recorder (see internal/obs): a fixed-size single-writer
// ring of per-round records the round loop writes with zero allocations
// when attached via StreamConfig.Recorder — counts plus per-phase wall
// time, readable concurrently and exportable as JSONL (the daemon's
// GET /trace, flowsim -roundlog).
type (
	// FlightRecorder is the per-round ring buffer.
	FlightRecorder = obs.FlightRecorder
	// RoundRecord is one scheduling round's counts and phase timings.
	RoundRecord = obs.RoundRecord
)

// NewFlightRecorder returns a recorder holding the last rounds records
// (rounds <= 0 selects the default capacity; it panics above
// 16,777,216, obs.MaxRecords).
func NewFlightRecorder(rounds int) *FlightRecorder { return obs.NewFlightRecorder(rounds) }

// StreamRoundRobin returns the native incremental policy: virtual output
// queues served oldest-first with iSLIP-style per-input pointers rotating
// in output-port order, independent of the pending count.
func StreamRoundRobin() StreamPolicy { return &stream.RoundRobin{} }

// StreamPolicyByName resolves a streaming policy by name — a native one
// (RoundRobin, OldestFirst, WeightedISLIP, StreamFIFO) or one of the
// paper's heuristics, bridged; see internal/stream — nil if unknown.
func StreamPolicyByName(name string) StreamPolicy { return stream.ByName(name) }

// NewInstanceSource replays a finite instance as an arrival stream in
// (release, index) order.
func NewInstanceSource(inst *Instance) *workload.InstanceSource {
	return workload.NewInstanceSource(inst)
}

// NewChanSource returns a concurrent-feed arrival source: producers
// PushBatch slices of flows (or Push single ones) from any goroutine while
// a runtime drains it; Close ends the stream. A pushed slice is queued as
// it is and belongs to the source from then on. buffer bounds the flows
// waiting for the runtime, not the batches. Release rounds are assigned
// at admission (the scheduler's clock is virtual). This is the source
// behind the flowschedd daemon's HTTP ingest.
func NewChanSource(buffer int) *workload.ChanSource {
	return workload.NewChanSource(buffer)
}

// RunSweep executes a full solver x workload sweep and returns its result
// table; failures are recorded per row (table.FirstError, AllVerified).
func RunSweep(cfg SweepConfig) *ResultTable { return engine.RunSweep(cfg) }

// DefaultSweep crosses the default solver registry (ART, MRT, AMRT, the
// three heuristics, coflow-SEBF) with the default workload patterns
// (Poisson, permutation, hotspot) at the given scale.
func DefaultSweep(ports, T, trials int, seed int64, workers int) SweepConfig {
	return engine.DefaultSweep(ports, T, trials, seed, workers)
}
