package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"flowsched/internal/switchnet"
)

// Arrival-stream sources for the streaming scheduler runtime
// (internal/stream): instead of materializing a finite instance up front,
// a source yields flows one at a time in non-decreasing release order, so
// the runtime can schedule unbounded arrival processes in bounded memory.
// All sources here satisfy internal/stream.Source structurally; the
// interface is restated as FlowSource to keep this package free of a
// dependency on the runtime. The generated and parsed sources
// (ArrivalSource, ChurnSource, TraceSource) and faultinject's shifting
// wrappers each supply one reader of their sequence to a Seq, which
// derives Next and PullBatch from it; ChanSource (a live feed),
// InstanceSource (a slice) and the delegating Limit do not.

// FlowSource yields flows in non-decreasing release order, read two ways
// over the same sequence. Next returns the next flow whatever its
// release, or ok=false when the stream is exhausted or failed; Err
// reports the failure (nil for a clean end of stream). PullBatch appends
// to dst up to max flows whose Release is <= round and returns the
// extended slice, never blocking and never consuming a flow released
// later; a short batch (fewer than max) means no further flow with
// Release <= round is currently available — the stream is exhausted,
// failed, or its next flow releases later. The two may be interleaved
// freely: the flows come out in the order Next alone would yield them.
// The streaming runtime admits through PullBatch and calls Next only
// when it has nothing pending (see stream.Source). A reader that never
// blocks gets both reads, and that guarantee, by embedding a Seq.
type FlowSource interface {
	Next() (f switchnet.Flow, ok bool)
	PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow
	Err() error
}

// Every source of the package meets the contract.
var (
	_ FlowSource = (*ArrivalSource)(nil)
	_ FlowSource = (*TraceSource)(nil)
	_ FlowSource = (*InstanceSource)(nil)
	_ FlowSource = (*ChurnSource)(nil)
	_ FlowSource = (*ChanSource)(nil)
	_ FlowSource = (*Limit)(nil)
)

// ArrivalConfig describes a generator-driven arrival process: Poisson(M)
// flows per round on a Ports x Ports switch with uniformly random
// endpoints, and demands drawn either unit, uniform, or bounded-Pareto.
type ArrivalConfig struct {
	// Ports is the switch size; Cap the per-port capacity (default 1).
	// Demands are clamped to Cap so d_e <= kappa_e always holds.
	Ports int
	Cap   int
	// M > 0 is the mean number of arrivals per round.
	M float64
	// MaxFlows ends the stream after that many flows (0 = unbounded).
	MaxFlows int64
	// Alpha > 0 selects bounded-Pareto demands on [MinDemand, MaxDemand];
	// Alpha == 0 with MaxDemand > 1 selects uniform demands on
	// [1, MaxDemand]; otherwise demands are unit.
	Alpha                float64
	MinDemand, MaxDemand int
}

// ArrivalSource streams flows drawn round by round from an ArrivalConfig.
type ArrivalSource struct {
	Seq
	cfg        ArrivalConfig
	rng        *rand.Rand
	cap        int
	minD, maxD int
	err        error
}

// NewArrivalSource returns a source drawing from cfg with rng. It fails
// fast (first Next returns ok=false with an Err) on a non-positive arrival
// rate or switch size.
func NewArrivalSource(cfg ArrivalConfig, rng *rand.Rand) *ArrivalSource {
	s := &ArrivalSource{Seq: NewSeq(ended), cfg: cfg, rng: rng}
	if cfg.Ports <= 0 || cfg.M <= 0 {
		s.err = fmt.Errorf("workload: arrival source needs Ports > 0 and M > 0 (got %d, %g)", cfg.Ports, cfg.M)
		return s
	}
	s.cap = cfg.Cap
	if s.cap < 1 {
		s.cap = 1
	}
	s.maxD = cfg.MaxDemand
	if s.maxD < 1 {
		s.maxD = 1
	}
	if s.maxD > s.cap {
		s.maxD = s.cap
	}
	s.minD = cfg.MinDemand
	if s.minD < 1 {
		s.minD = 1
	}
	if s.minD > s.maxD {
		s.minD = s.maxD
	}
	s.Seq = generated(cfg.MaxFlows, s.fillRound)
	return s
}

// Switch returns the switch the source's flows are drawn for.
func (s *ArrivalSource) Switch() switchnet.Switch {
	return switchnet.NewSwitch(s.cfg.Ports, s.cfg.Ports, s.cap)
}

// Err implements FlowSource.
func (s *ArrivalSource) Err() error { return s.err }

// fillRound appends round's arrivals (possibly none) to dst.
func (s *ArrivalSource) fillRound(dst []switchnet.Flow, round int) []switchnet.Flow {
	k := Poisson(s.rng, s.cfg.M)
	for i := 0; i < k; i++ {
		d := 1
		switch {
		case s.cfg.Alpha > 0:
			d = BoundedPareto(s.rng, s.cfg.Alpha, s.minD, s.maxD)
		case s.maxD > 1:
			d = 1 + s.rng.Intn(s.maxD)
		}
		dst = append(dst, switchnet.Flow{
			In:      s.rng.Intn(s.cfg.Ports),
			Out:     s.rng.Intn(s.cfg.Ports),
			Demand:  d,
			Release: round,
		})
	}
	return dst
}

// TraceSource streams the repository's CSV flow-trace format
// ("release,in,out,demand" per line, optional header) without loading the
// whole trace into memory. Flows are validated against the switch as they
// are read, and the trace must be sorted by release round — the streaming
// contract — or Next fails with an Err.
type TraceSource struct {
	Seq
	cr      *csv.Reader
	sw      switchnet.Switch
	line    int
	lastRel int
	err     error
	done    bool
}

// NewTraceSource returns a streaming reader of the CSV trace r whose flows
// run on switch sw.
func NewTraceSource(r io.Reader, sw switchnet.Switch) *TraceSource {
	s := &TraceSource{cr: traceReader(r), sw: sw}
	s.Seq = NewSeq(s.read)
	return s
}

// read parses, validates, and returns the next trace record.
func (s *TraceSource) read() (switchnet.Flow, bool) {
	if s.done {
		return switchnet.Flow{}, false
	}
	for {
		rec, err := s.cr.Read()
		if err == io.EOF {
			s.done = true
			return switchnet.Flow{}, false
		}
		if err != nil {
			return s.fail(fmt.Errorf("workload: trace line %d: %w", s.line+1, err))
		}
		s.line++
		if s.line == 1 && rec[0] == "release" {
			continue // header
		}
		f, err := parseTraceRecord(rec, s.line)
		if err != nil {
			return s.fail(err)
		}
		if f.Release < s.lastRel {
			return s.fail(fmt.Errorf("workload: trace line %d: release %d after %d (stream must be sorted by release)",
				s.line, f.Release, s.lastRel))
		}
		if err := s.sw.ValidateFlow(f); err != nil {
			return s.fail(fmt.Errorf("workload: trace line %d: %w", s.line, err))
		}
		s.lastRel = f.Release
		return f, true
	}
}

// fail records err and ends the stream.
func (s *TraceSource) fail(err error) (switchnet.Flow, bool) {
	s.err = err
	s.done = true
	return switchnet.Flow{}, false
}

// Err implements FlowSource.
func (s *TraceSource) Err() error { return s.err }

// InstanceSource replays a finite instance as an arrival stream, yielding
// its flows sorted by (release, index) — the order a batch simulator
// admits them in, so a streamed run of a finite instance is comparable
// flow-for-flow with one (stream.Replay).
type InstanceSource struct {
	inst  *switchnet.Instance
	order []int
	pos   int
}

// NewInstanceSource returns a source over inst's flows.
func NewInstanceSource(inst *switchnet.Instance) *InstanceSource {
	order := make([]int, inst.N())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return inst.Flows[order[a]].Release < inst.Flows[order[b]].Release
	})
	return &InstanceSource{inst: inst, order: order}
}

// Next implements FlowSource.
func (s *InstanceSource) Next() (switchnet.Flow, bool) {
	if s.pos >= len(s.order) {
		return switchnet.Flow{}, false
	}
	f := s.inst.Flows[s.order[s.pos]]
	s.pos++
	return f, true
}

// PullBatch implements FlowSource.
func (s *InstanceSource) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	for n := 0; n < max && s.pos < len(s.order); n++ {
		f := s.inst.Flows[s.order[s.pos]]
		if f.Release > round {
			break
		}
		dst = append(dst, f)
		s.pos++
	}
	return dst
}

// Err implements FlowSource.
func (s *InstanceSource) Err() error { return nil }

// Order returns the flow indices in emission order: the k-th flow yielded
// by Next is s.Order()[k] in the original instance.
func (s *InstanceSource) Order() []int { return s.order }
