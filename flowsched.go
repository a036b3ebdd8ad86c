package flowsched

import (
	"flowsched/internal/core"
	"flowsched/internal/obs"
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

// Offline algorithm results.
type (
	// ARTResult is the outcome of SolveART (Theorem 1).
	ARTResult = core.ARTResult
	// MRTResult is the outcome of SolveMRT (Theorem 3 + binary search).
	MRTResult = core.MRTResult
	// ARTLowerBoundResult carries the LP (1)-(4) bound of Lemma 3.1.
	ARTLowerBoundResult = core.ARTLowerBoundResult
	// PseudoSchedule is the Lemma 3.3 iterative-rounding output.
	PseudoSchedule = core.PseudoSchedule
)

// SolveART computes a schedule for a unit-demand instance whose average
// response time is within (1 + O(log n)/c) of optimal using port capacities
// scaled by 1+c (Theorem 1).
func SolveART(inst *Instance, c int) (*ARTResult, error) { return core.SolveART(inst, c) }

// SolveMRT computes a schedule achieving the optimal maximum response time
// with every port capacity increased by at most 2*d_max-1 (Theorem 3).
func SolveMRT(inst *Instance) (*MRTResult, error) { return core.SolveMRT(inst) }

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

// SimResult summarizes one replay of a finite instance (see
// internal/stream's Replay).
type SimResult = stream.Result

// Simulate runs the online simulator of Section 5.2.1 with the policy.
func Simulate(inst *Instance, pol StreamPolicy) (*SimResult, error) {
	res, _, err := stream.Replay(inst, stream.Config{Policy: pol})
	return res, err
}

// PolicyByName resolves one of the paper's heuristics (MaxCard,
// MinRTime, MaxWeight) through the stream policy table; nil if name is
// unknown or a native streaming policy.
func PolicyByName(name string) StreamPolicy {
	for _, p := range stream.PaperNames() {
		if p == name {
			return stream.ByName(name)
		}
	}
	return nil
}

// Schedule verification (see internal/verify): the independent feasibility
// oracle every engine scenario and experiment figure runs through.
type VerifyReport = verify.Report

// CheckSchedule validates sched against inst under per-port capacities
// caps (global index order) and recomputes the response-time metrics. It
// returns a non-nil error iff the schedule is not a real schedule for the
// instance under caps; a flow whose ports are not on the switch or whose
// demand is not positive is reported as a violation like any other. The
// check runs on a pooled oracle and the Report is the caller's to keep: a
// warmed feasible check allocates the Report and nothing else.
func CheckSchedule(inst *Instance, sched *Schedule, caps []int) (*VerifyReport, error) {
	return verify.CheckSchedule(inst, sched, caps)
}

// CheckScaled checks sched under capacities scaled by factor (Theorem 1's
// "(1+c)x" augmentation). The oracle raises the capacities in its own
// pooled scratch, so, as with CheckSchedule, a warmed feasible check
// allocates only the Report it returns.
func CheckScaled(inst *Instance, sched *Schedule, factor int) (*VerifyReport, error) {
	return verify.CheckScaled(inst, sched, factor)
}

// CheckAugmented checks sched under capacities increased by delta
// (Theorem 3's "+2*d_max-1" augmentation), on the pooled oracle as
// CheckScaled is.
func CheckAugmented(inst *Instance, sched *Schedule, delta int) (*VerifyReport, error) {
	return verify.CheckAugmented(inst, sched, delta)
}

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
	// Run blocks until the source drains (or Stop cancels it);
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

// StreamPolicyByName resolves a streaming policy by name — a native one
// (RoundRobin, OldestFirst, WeightedISLIP, StreamFIFO) or one of the
// paper's heuristics; see internal/stream — nil if unknown.
func StreamPolicyByName(name string) StreamPolicy { return stream.ByName(name) }

// NewInstanceSource replays a finite instance as an arrival stream in
// (release, index) order.
func NewInstanceSource(inst *Instance) *workload.InstanceSource {
	return workload.NewInstanceSource(inst)
}

// NewChanSource returns a concurrent-feed arrival source: producers
// PushBatch slices of flows (or Push single ones) from any goroutine while
// a runtime drains it; Close ends the stream. A pushed slice is copied
// into slabs the source recycles, so the caller may reuse it as soon as
// PushBatch returns. buffer bounds the flows waiting for the runtime, not
// the batches. Release rounds are assigned
// at admission (the scheduler's clock is virtual). This is the source
// behind the flowschedd daemon's HTTP ingest.
func NewChanSource(buffer int) *workload.ChanSource {
	return workload.NewChanSource(buffer)
}
