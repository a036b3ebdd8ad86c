// Package faultinject is the chaos harness for the streaming scheduler:
// deterministic, seed-driven wrappers that inject the failures a
// production deployment actually sees — source hiccups (the ingest path
// goes quiet, then bursts), source errors (the feed dies mid-stream),
// clock jumps (huge idle gaps in virtual time), shard stalls (a policy
// instance schedules nothing for a stretch), and checkpoint-file
// corruption (truncation, bit flips) — so tests can assert the
// runtime's invariants hold under failure, not just on the happy path.
//
// Everything is deterministic: wrappers derive their fault schedules
// from an explicit seed, never from wall clock or global randomness, so
// a failing chaos run replays exactly. None of the wrappers break the
// stream contract (releases stay non-decreasing, batch pulls stay
// release-gated); they reshape timing and availability, which is what
// real faults do.
//
//flowsched:testonly the fault tests of faultinject and workload (conformance, golden) import it; no binary injects faults
package faultinject

import (
	"fmt"
	"math/rand"
	"os"

	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// HiccupSource simulates an ingest path that stalls and recovers: with
// probability Prob per flow (seeded), the flow — and, releases being
// non-decreasing, everything after it — is pushed MinGap..MaxGap rounds
// later than the underlying source released it. The shift accumulates,
// exactly like a real feed that falls behind and never un-sends what it
// already delayed.
//
// The wrapped source must be replayable — its Next never blocks — since
// PullBatch reads it through Next: wrapping a live ChanSource would block.
type HiccupSource struct {
	workload.Seq
	src   stream.Source
	rng   *rand.Rand
	prob  float64
	min   int
	max   int
	shift int

	// Hiccups counts injected stalls, for test assertions that the fault
	// actually fired.
	Hiccups int
}

// NewHiccupSource wraps src; prob is the per-flow hiccup probability and
// [minGap, maxGap] the rounds each hiccup adds to every later release.
func NewHiccupSource(src stream.Source, seed int64, prob float64, minGap, maxGap int) *HiccupSource {
	if minGap < 1 {
		minGap = 1
	}
	if maxGap < minGap {
		maxGap = minGap
	}
	s := &HiccupSource{src: src, rng: rand.New(rand.NewSource(seed)), prob: prob, min: minGap, max: maxGap}
	s.Seq = workload.NewSeq(s.read)
	return s
}

// read takes the next flow of the wrapped source, rolls the hiccup die
// for it and shifts its release.
func (s *HiccupSource) read() (switchnet.Flow, bool) {
	f, ok := s.src.Next()
	if !ok {
		return f, false
	}
	if s.rng.Float64() < s.prob {
		s.shift += s.min + s.rng.Intn(s.max-s.min+1)
		s.Hiccups++
	}
	f.Release += s.shift
	return f, true
}

// Err implements stream.Source.
func (s *HiccupSource) Err() error { return s.src.Err() }

// ErrorSource fails the stream after yielding n flows: Next/PullBatch
// report end-of-stream and Err reports the injected error, exactly the
// contract a dying feed presents.
type ErrorSource struct {
	src  stream.Source
	left int
	err  error
	hit  bool
}

// NewErrorSource wraps src to die with err after n flows.
func NewErrorSource(src stream.Source, n int, err error) *ErrorSource {
	return &ErrorSource{src: src, left: n, err: err}
}

// Next implements stream.Source.
func (s *ErrorSource) Next() (switchnet.Flow, bool) {
	if s.left <= 0 {
		s.hit = true
		return switchnet.Flow{}, false
	}
	f, ok := s.src.Next()
	if ok {
		s.left--
	}
	return f, ok
}

// PullBatch implements stream.Source.
func (s *ErrorSource) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	if s.left <= 0 {
		s.hit = true
		return dst
	}
	if max > s.left {
		max = s.left
	}
	before := len(dst)
	dst = s.src.PullBatch(dst, round, max)
	s.left -= len(dst) - before
	return dst
}

// Err implements stream.Source: the injected error once the budget is
// spent, the underlying source's otherwise.
func (s *ErrorSource) Err() error {
	if s.hit || s.left <= 0 {
		return s.err
	}
	return s.src.Err()
}

// JumpSource injects a virtual-clock jump: after n flows, every later
// release is shifted forward by jump rounds, opening a huge idle gap the
// runtime must cross with its idle-jump path (and, with verification
// windows on, flush across) without disturbing accounting. Like
// HiccupSource, it reads the wrapped source through Next, which must
// never block.
type JumpSource struct {
	workload.Seq
	src  stream.Source
	left int
	jump int
}

// NewJumpSource wraps src to jump the clock by jump rounds after n
// flows.
func NewJumpSource(src stream.Source, n, jump int) *JumpSource {
	s := &JumpSource{src: src, left: n, jump: jump}
	s.Seq = workload.NewSeq(s.read)
	return s
}

// read takes the next flow of the wrapped source, shifted once n flows
// have passed.
func (s *JumpSource) read() (switchnet.Flow, bool) {
	f, ok := s.src.Next()
	if !ok {
		return f, false
	}
	if s.left > 0 {
		s.left--
	} else {
		f.Release += s.jump
	}
	return f, true
}

// Err implements stream.Source.
func (s *JumpSource) Err() error { return s.src.Err() }

// StallPolicy simulates a wedged shard: on a deterministic cadence it
// suppresses the wrapped policy's Pick entirely — the shard schedules
// nothing for StallLen consecutive rounds every Period rounds — which is
// what a stuck policy instance, a paused goroutine, or a briefly
// livelocked shard looks like to the rest of the runtime. It passes
// Shardable and Resetter through, so it wraps sharded runs transparently
// (each shard stalls on the same round cadence, driven by the round
// number, not per-instance state).
type StallPolicy struct {
	// P is the wrapped policy.
	P stream.Policy
	// Period and StallLen define the stall cadence: rounds r with
	// Period <= r%(Period+StallLen) are stalled... more precisely, each
	// window of Period+StallLen rounds schedules normally for Period
	// rounds, then stalls for StallLen.
	Period   int
	StallLen int
}

// Name implements stream.Policy.
func (p *StallPolicy) Name() string { return "Stall(" + p.P.Name() + ")" }

// Pick implements stream.Policy: a stalled round takes nothing.
func (p *StallPolicy) Pick(v *stream.View) {
	cycle := p.Period + p.StallLen
	if cycle > 0 && v.Round()%cycle >= p.Period {
		return
	}
	p.P.Pick(v)
}

// NewShard implements stream.Shardable when the wrapped policy does.
func (p *StallPolicy) NewShard(k int) stream.Policy {
	return &StallPolicy{P: p.P.(stream.Shardable).NewShard(k), Period: p.Period, StallLen: p.StallLen}
}

// Reset implements stream.Resetter, forwarding when the wrapped policy
// resets.
func (p *StallPolicy) Reset(sw switchnet.Switch) {
	if r, ok := p.P.(stream.Resetter); ok {
		r.Reset(sw)
	}
}

// TruncateFile cuts the file at path down to n bytes — the torn tail a
// crash mid-write (without an atomic rename) would leave.
func TruncateFile(path string, n int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if n < 0 || n > info.Size() {
		return fmt.Errorf("faultinject: truncate %s to %d bytes (file is %d)", path, n, info.Size())
	}
	return os.Truncate(path, n)
}

// FlipByte XOR-flips one byte of the file at path — silent media
// corruption. off counts from the start; negative counts from the end
// (-1 is the last byte).
func FlipByte(path string, off int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if off < 0 {
		off += int64(len(data))
	}
	if off < 0 || off >= int64(len(data)) {
		return fmt.Errorf("faultinject: flip offset %d outside %d-byte file %s", off, len(data), path)
	}
	data[off] ^= 0xFF
	return os.WriteFile(path, data, 0o644)
}
