package stream

import (
	"fmt"
	"math/bits"

	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// scratchPolicy is implemented by native policies whose schedule depends
// on per-run scratch state beyond the pending set — rotation pointers
// that survive between rounds. A checkpoint captures the scratch of each
// policy instance (exportScratch, into a fresh slice) and a restore
// replays it after Reset (importScratch, offered only when the
// restored runtime runs the same policy at the same shard count), which
// is what makes the stateful policies restore-exact: a kill -9/restore
// continues the exact schedule the uninterrupted run would have
// produced. Policies without the interface are memoryless — their
// schedule is a pure function of the pending set — and need nothing
// carried.
type scratchPolicy interface {
	exportScratch() []int64
	importScratch(src []int64) error
}

// FIFO takes pending flows oldest-first (admission order), first-fit:
// the ablations' FIFO baseline. A round costs O(pending) — bounded by
// Config.MaxPending — so it is not an incremental policy; prefer
// RoundRobin when the pending set is large. It is shardable: each
// instance serves its scope's flows oldest-first.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "StreamFIFO" }

// NewShard implements Shardable.
func (FIFO) NewShard() Policy { return FIFO{} }

// Pick implements Policy.
//
//flowsched:hotpath
func (FIFO) Pick(v *View) {
	v.Each(func(id ID, _ int64, _ switchnet.Flow) bool { //flowsched:allow alloc: non-escaping iterator closure; zero-alloc steady state pinned by TestSteadyStateZeroAlloc
		v.Take(id)
		return true
	})
}

// RoundRobin is the runtime's native incremental policy: per-(input,
// output) virtual output queues served oldest-first, with a rotating
// per-input pointer over the input's VOQs in output-port order
// (iSLIP-style desynchronization: the pointer records the last output
// port served and the next pass resumes at its successor, so every
// persistently-active VOQ at an input is served within one full rotation
// of the port space). Within a VOQ a blocked head blocks the queue —
// strict FIFO, so no flow is ever overtaken by a younger flow on the same
// port pair.
//
// It trades the tail for the mean. On uniform unit Poisson traffic at 150
// ports and load 0.95 (seed 1) it has the best average response of the
// native policies, 18.71 rounds against OldestFirst's 25.52, and the worst
// maximum, 917 rounds against 81: the pointer serves ports in turn, not
// flows by age. On the benchmark's steady_skew workload its maximum is 440
// rounds against OldestFirst's 18.
//
// A pick sweeps each input's active-VOQ bitmap words AND-ed with a mask
// of the outputs that still have capacity, so it reads queues and arena
// records only for VOQs whose output can take a flow; a saturated output
// costs bitmap-word operations, nothing more. A round therefore costs
// O(ports + active inputs x words) word operations plus the queues it
// reads, independent of how many flows are pending or were ever seen.
// Skipping a saturated output cannot move the schedule: demands are at
// least 1, so its VOQ would serve nothing, and the pointer moves only on
// a serve.
type RoundRobin struct {
	// rr[in] is the last output port served at input in (-1 before any);
	// a pass over in's VOQs starts at its successor in port order.
	rr []int
	// mask has one bit per output with capacity left during a pick, laid
	// out like the active-VOQ bitmap words it is AND-ed with.
	mask []uint64
	nOut int
}

// Name implements Policy.
func (*RoundRobin) Name() string { return "RoundRobin" }

// NewShard implements Shardable: per-input pointers carry no cross-input
// state, so a fresh instance per scope preserves the rotation semantics.
func (*RoundRobin) NewShard() Policy { return &RoundRobin{} }

// Reset implements Resetter: it sizes the pointers and the free-output
// mask to the switch so Pick never allocates.
func (p *RoundRobin) Reset(sw switchnet.Switch) {
	p.rr = make([]int, sw.NumIn())
	for i := range p.rr {
		p.rr[i] = -1
	}
	p.nOut = sw.NumOut()
	p.mask = make([]uint64, (p.nOut+63)/64)
}

// exportScratch implements scratchPolicy: the per-input rotation
// pointers, in input-port order.
func (p *RoundRobin) exportScratch() []int64 {
	dst := make([]int64, len(p.rr))
	for i, r := range p.rr {
		dst[i] = int64(r)
	}
	return dst
}

// importScratch implements scratchPolicy; it runs after Reset, against a
// same-geometry switch (the runtime checks policy name and shard count
// before offering a snapshot). A pointer outside [-1, NumOut) is refused:
// no run writes one, and a sweep cannot start from it.
func (p *RoundRobin) importScratch(src []int64) error {
	if len(src) != len(p.rr) {
		return fmt.Errorf("RoundRobin scratch: got %d values, want %d", len(src), len(p.rr))
	}
	for i, v := range src {
		if v < -1 || v >= int64(p.nOut) {
			return fmt.Errorf("RoundRobin scratch: input %d's pointer %d is outside [-1, %d)", i, v, p.nOut)
		}
		p.rr[i] = int(v)
	}
	return nil
}

// Pick implements Policy.
//
//flowsched:hotpath
func (p *RoundRobin) Pick(v *View) {
	clear(p.mask)
	nOut := 0
	for j := 0; j < p.nOut; j++ {
		if v.OutputFree(j) > 0 {
			p.mask[j>>6] |= 1 << uint(j&63)
			nOut++
		}
	}
	nw := len(p.mask)
	for a := 0; a < v.NumActiveInputs() && nOut > 0; a++ {
		in := v.ActiveInput(a)
		free := v.InputFree(in)
		if free <= 0 {
			continue
		}
		start := p.rr[in] + 1
		if start == p.nOut {
			start = 0
		}
		// One circular sweep over the input's active VOQs toward outputs
		// with capacity, in port order from the pointer's successor: the
		// start word's bits at or above start, the words after it, the
		// words before it, and last the start word's bits below start.
		// Serving (in, out) can clear only out's mask bit, and the sweep
		// has passed out by then, so each word is read once.
		w0, below := start>>6, uint64(1)<<uint(start&63)-1
		words := v.voqWords(in)
		for k := 0; k <= nw && free > 0; k++ {
			wi := w0 + k
			if wi >= nw {
				wi -= nw
			}
			w := words[wi] & p.mask[wi]
			if k == 0 {
				w &^= below
			} else if k == nw {
				w &= below
			}
			for ; w != 0 && free > 0; w &= w - 1 {
				out := wi<<6 + bits.TrailingZeros64(w)
				var served bool
				if free, served = drainVOQ(v, in, out, free); !served {
					continue
				}
				// The pointer advances once per VOQ served, however many
				// flows drained, and records the output port, so it stays
				// meaningful as VOQs activate and drain around it.
				p.rr[in] = out
				if v.OutputFree(out) <= 0 {
					p.mask[wi] &^= 1 << uint(out&63)
					if nOut--; nOut == 0 {
						return
					}
				}
			}
		}
	}
}

// drainVOQ drains the (in, out) virtual output queue oldest-first while
// free input and output capacity last, skipping flows already taken this
// round (a flow an earlier WeightedISLIP iteration took is not a blocked
// head, so a later one may drain past it). It returns the
// input's remaining free capacity and whether anything was served. It
// walks the queue from VOQHead along VOQNext, as OldestFirst.take does,
// so each queue entry costs the one hot-record line its Taken and Demand
// checks read anyway; an untaken head that does not fit stops the walk —
// FIFO within the VOQ, a blocked head blocks the queue. Callers reach it
// only for an output with capacity: RoundRobin masks saturated outputs
// out of its sweep, and WeightedISLIP drains only an accepted request,
// whose output its request filter checked.
func drainVOQ(v *View, in, out, free int) (int, bool) {
	served := false
	for id := v.VOQHead(in, out); id != NoID && free > 0; id = v.VOQNext(id) {
		if v.Taken(id) {
			continue
		}
		d := v.Demand(id)
		if d > free || v.OutputFree(out) < d || !v.Take(id) {
			break
		}
		free -= d
		served = true
	}
	return free, served
}

// table is the one policy registry, in presentation order: the paper's
// heuristics (its paper rows), then the native policies. Every
// constructor returns a fresh instance, so runtimes never share a
// policy's state.
var table = []struct {
	name  string
	paper bool
	mk    func() Policy
}{
	{"MaxCard", true, maxCard},
	{"MinRTime", true, minRTime},
	{"MaxWeight", true, maxWeight},
	{"RoundRobin", false, func() Policy { return &RoundRobin{} }},
	{"OldestFirst", false, func() Policy { return &OldestFirst{} }},
	{"WeightedISLIP", false, func() Policy { return &WeightedISLIP{} }},
	{"StreamFIFO", false, func() Policy { return FIFO{} }},
}

// AllNames returns every name ByName resolves, in presentation order.
func AllNames() []string { return names(true, true) }

// Names returns the native policies' names.
func Names() []string { return names(false, true) }

// PaperNames returns the paper's heuristics, the table's paper rows, in
// presentation order.
func PaperNames() []string { return names(true, false) }

func names(paper, native bool) []string {
	var out []string
	for _, e := range table {
		if e.paper && paper || !e.paper && native {
			out = append(out, e.name)
		}
	}
	return out
}

// ByName resolves a policy of the table by name (a fresh instance per
// call); nil if unknown.
func ByName(name string) Policy {
	for _, e := range table {
		if e.name == name {
			return e.mk()
		}
	}
	return nil
}

// Result summarizes one policy's replay of a finite instance.
type Result struct {
	// Schedule holds the per-flow rounds chosen by the policy.
	Schedule *switchnet.Schedule
	// TotalResponse, AvgResponse and MaxResponse are the paper's metrics.
	TotalResponse int
	AvgResponse   float64
	MaxResponse   int
	// Rounds is one past the last scheduled round.
	Rounds int
}

// Replay is the simulator of Section 5.2.1: it drains the finite
// instance inst through a runtime configured by cfg, with cfg's Switch,
// OnSchedule and MaxPending set — N+1, so every flow is admitted in its
// release round — and returns the schedule in inst's flow order, the
// paper's metrics and the drain's summary.
func Replay(inst *switchnet.Instance, cfg Config) (*Result, *Summary, error) {
	src := workload.NewInstanceSource(inst)
	sched := switchnet.NewSchedule(inst.N())
	cfg.Switch, cfg.MaxPending = inst.Switch, inst.N()+1
	cfg.OnSchedule = func(seq int64, _ switchnet.Flow, round int) {
		sched.Round[src.Order()[seq]] = round
	}
	rt, err := New(src, cfg)
	if err != nil {
		return nil, nil, err
	}
	sum, err := rt.Run()
	if err != nil {
		return nil, nil, err
	}
	return &Result{
		Schedule:      sched,
		TotalResponse: int(sum.TotalResponse),
		AvgResponse:   sum.AvgResponse,
		MaxResponse:   sum.MaxResponse,
		Rounds:        sum.Round,
	}, sum, nil
}
