package stream

import (
	"fmt"
	"math/bits"

	"flowsched/internal/switchnet"
)

// DefaultISLIPIters is WeightedISLIP's request/grant/accept iteration
// count per pick. Two iterations resolve the vast majority of port
// conflicts on practical switch sizes (classic iSLIP converges in
// O(log N) iterations; its hardware deployments ran 1-4), and each extra
// iteration re-sweeps the unmatched inputs' head records.
const DefaultISLIPIters = 2

// WeightedISLIP is the native queue-age-weighted iSLIP scheduler:
// iterative request/grant/accept matching where the weight of a request
// is the age of the VOQ's head flow, following the queue-age-weighted
// matchings that achieve optimal delay scaling in the input-queued-switch
// model (Liang & Modiano, Coflow Scheduling in Input-Queued Switches).
// Each iteration:
//
//  1. Request. Every input with free capacity offers each of its active
//     VOQs whose head (per the runtime's head-age record) currently
//     fits the remaining port capacity.
//  2. Grant. Every requested output grants its oldest-head request —
//     smallest release round, ties broken in favor of the input closest
//     after the output's grant pointer in circular port order (the
//     iSLIP desynchronization device, demoted to a tie-breaker because
//     ages, unlike classic iSLIP's unweighted requests, already
//     guarantee a starved VOQ eventually outbids every rival).
//  3. Accept. Every input granted to accepts its oldest grant — same
//     ordering, with the input's accept pointer breaking ties — and the
//     accepted VOQ drains oldest-first while port capacity lasts
//     (strict FIFO; a blocked head blocks its queue). Both rotation
//     pointers then advance to the accepted pair.
//
// Iterations repeat until one serves nothing (or DefaultISLIPIters is
// reached), so a round always makes progress when any head fits. Weight
// comparisons form a total order — age first, pointer distance second,
// and distances are unique per port — so the outcome is independent of
// iteration order over the active-input list: same stream, same shard
// count, bit-identical schedules.
//
// A round costs O(active VOQs + scheduled) hot-record reads — the
// request sweep skips a saturated input in O(1) — with all scratch
// preallocated at Reset, so steady-state rounds allocate nothing.
// WeightedISLIP is Shardable: each instance, at its turn (see
// turns.Pick), matches its own inputs against the output capacity the
// turns before it left, with its own pointer state, which
// is exactly the per-input decomposition the request/grant/accept
// structure already has.
type WeightedISLIP struct {
	// Rotation pointers: grant[j] is the input whose grant output j last
	// had accepted, accept[i] the output input i last accepted (-1 before
	// any). Ties resolve to the port closest after the pointer.
	grant  []int32
	accept []int32

	// Per-iteration scratch, preallocated at Reset and reset via the
	// touched lists: the strongest request per output and the strongest
	// grant per input, as (port, release) pairs, plus a snapshot of the
	// outputs' free capacity (constant within an iteration: the
	// request sweep completes before any drain) so the request filter
	// costs local array reads. reqOuts and accIns list the outputs with
	// a request and the inputs with a grant: an output holds one request
	// and an input one accept per iteration, so they stay within the
	// numOut and numIn capacities Reset reserves.
	reqIn         []int32
	reqRel        []int64
	reqOuts       []int32
	accOut        []int32
	accRel        []int64
	accIns        []int32
	outFree       []int32
	numIn, numOut int
}

// Name implements Policy.
func (*WeightedISLIP) Name() string { return "WeightedISLIP" }

// NewShard implements Shardable: pointer and scratch state is per
// instance (the runtime calls Reset on every instance at construction).
func (p *WeightedISLIP) NewShard() Policy { return &WeightedISLIP{} }

// Reset implements Resetter: it sizes the pointer and scratch arrays to
// the switch so Pick never allocates.
func (p *WeightedISLIP) Reset(sw switchnet.Switch) {
	p.numIn, p.numOut = sw.NumIn(), sw.NumOut()
	p.grant = newIDs(p.numOut)
	p.accept = newIDs(p.numIn)
	p.reqIn = newIDs(p.numOut)
	p.reqRel = make([]int64, p.numOut)
	p.reqOuts = make([]int32, 0, p.numOut)
	p.accOut = newIDs(p.numIn)
	p.accRel = make([]int64, p.numIn)
	p.accIns = make([]int32, 0, p.numIn)
	p.outFree = make([]int32, p.numOut)
}

// exportScratch implements scratchPolicy: the grant rotation pointers in
// output-port order, then the accept pointers in input-port order — the
// full schedule-affecting state a checkpoint must carry for a restore to
// be tie-break exact.
func (p *WeightedISLIP) exportScratch() []int64 {
	dst := make([]int64, 0, len(p.grant)+len(p.accept))
	for _, g := range p.grant {
		dst = append(dst, int64(g))
	}
	for _, a := range p.accept {
		dst = append(dst, int64(a))
	}
	return dst
}

// importScratch implements scratchPolicy; it runs after Reset, against a
// same-geometry switch (the runtime checks policy name and shard count
// before offering a snapshot). A grant pointer outside [-1, NumIn) or an
// accept pointer outside [-1, NumOut) is refused: no run writes one, and
// circDist's distances are unique per port only for pointers in range.
func (p *WeightedISLIP) importScratch(src []int64) error {
	if len(src) != p.numOut+p.numIn {
		return fmt.Errorf("WeightedISLIP scratch: got %d values, want %d", len(src), p.numOut+p.numIn)
	}
	for j := 0; j < p.numOut; j++ {
		if g := src[j]; g < -1 || g >= int64(p.numIn) {
			return fmt.Errorf("WeightedISLIP scratch: output %d's grant pointer %d is outside [-1, %d)", j, g, p.numIn)
		}
		p.grant[j] = int32(src[j])
	}
	for i := 0; i < p.numIn; i++ {
		if a := src[p.numOut+i]; a < -1 || a >= int64(p.numOut) {
			return fmt.Errorf("WeightedISLIP scratch: input %d's accept pointer %d is outside [-1, %d)", i, a, p.numOut)
		}
		p.accept[i] = int32(src[p.numOut+i])
	}
	return nil
}

// newIDs returns a fresh length-n slice of noID.
func newIDs(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = noID
	}
	return s
}

// Pick implements Policy.
//
//flowsched:hotpath
func (p *WeightedISLIP) Pick(v *View) {
	// Snapshot the outputs' free capacity once per pick; drains keep it
	// current between iterations.
	for j := 0; j < p.numOut; j++ {
		p.outFree[j] = int32(v.OutputFree(j))
	}
	for it := 0; it < DefaultISLIPIters; it++ {
		if p.iterate(v) == 0 {
			return
		}
	}
}

// iterate runs one request/grant/accept pass and returns how many VOQs it
// served.
func (p *WeightedISLIP) iterate(v *View) int {
	// Request + grant: sweep the scope's active VOQs once in ascending
	// port order off the bitmap words, reading each queue's head-age
	// record (one dense array read per VOQ, no list chasing and
	// no per-VOQ calls); each output retains only its strongest request,
	// so the grant decision falls out of the sweep without materializing
	// request lists.
	for a := 0; a < v.NumActiveInputs(); a++ {
		in := v.ActiveInput(a)
		free := int32(v.InputFree(in))
		if free <= 0 {
			continue
		}
		row := v.headRow(in)
		for wi, w := range v.voqWords(in) {
			for w != 0 {
				out := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				h := &row[out]
				if h.dem > free || p.outFree[out] < h.dem {
					continue
				}
				if cur := p.reqIn[out]; cur == noID {
					appendReserved(&p.reqOuts, int32(out))
				} else if !wins(h.rel, in, p.reqRel[out], int(cur), int(p.grant[out]), p.numIn) {
					continue
				}
				p.reqIn[out], p.reqRel[out] = int32(in), h.rel
			}
		}
	}

	// Accept: each granted output's offer lands at its input, which
	// retains only its strongest grant.
	for _, o := range p.reqOuts {
		out := int(o)
		in := int(p.reqIn[out])
		if cur := p.accOut[in]; cur == noID {
			appendReserved(&p.accIns, int32(in))
		} else if !wins(p.reqRel[out], out, p.accRel[in], int(cur), int(p.accept[in]), p.numOut) {
			continue
		}
		p.accOut[in], p.accRel[in] = int32(out), p.reqRel[out]
	}

	// Serve the accepted matches and advance the rotation pointers.
	// Accepted pairs touch pairwise-distinct inputs and outputs (one
	// grant per output, one accept per input), so the drains cannot
	// interfere; in the first iteration every accepted head serves. (In
	// a later one the head-age record can still describe a flow an
	// earlier iteration took — the drain skips it, and a queue left with
	// nothing servable simply wastes its grant for the iteration.)
	matched := 0
	for _, i := range p.accIns {
		in := int(i)
		out := int(p.accOut[in])
		before := v.InputFree(in)
		if after, served := drainVOQ(v, in, out, before); served {
			p.outFree[out] -= int32(before - after)
			p.grant[out] = int32(in)
			p.accept[in] = int32(out)
			matched++
		}
	}

	for _, o := range p.reqOuts {
		p.reqIn[o] = noID
	}
	p.reqOuts = p.reqOuts[:0]
	for _, i := range p.accIns {
		p.accOut[i] = noID
	}
	p.accIns = p.accIns[:0]
	return matched
}

// wins reports whether the candidate (relA, portA) beats the incumbent
// (relB, portB): older release first, then the port closer after ptr in
// circular order. Port distances are unique, so the order is total.
func wins(relA int64, portA int, relB int64, portB, ptr, n int) bool {
	if relA != relB {
		return relA < relB
	}
	return circDist(portA, ptr, n) < circDist(portB, ptr, n)
}

// circDist is the circular distance from ptr's successor to port x: 0 for
// the port right after the pointer, n-1 for the pointer itself (-1, the
// never-pointed state, makes it plain port order).
func circDist(x, ptr, n int) int {
	d := x - ptr - 1
	if d < 0 {
		d += n
	}
	return d
}
