package stream

import (
	"math/bits"

	"flowsched/internal/switchnet"
)

// This file is OldestFirst's layout on a switch whose every port capacity
// is 1, where every demand is 1 too: the window. Release rel has slot
// rel & (slots-1), and a slot holds, for each row of the scope, the
// bitmap of the outputs whose VOQ head at that input was released there,
// after a bitmap of the rows with any. The pick walks the releases
// pending, oldest first; at each, every input with a head there that is
// still free, in port order, ANDs its bitmap with the free-output mask
// and is matched to the lowest output, and the matched heads are taken
// after the walk (commitUnit). A unit input serves one flow a round, so
// a served head's successor never competes in the same pick, and a head
// whose ports are free always fits: the window holds no demands and the
// pick checks none.
//
// Every pending release lies in [oldest, newest], the releases of the
// first and last flows on the admission list, and the window spans more
// than that: a refresh that finds the span past it builds the window
// afresh over enough slots, up to ofMaxSlots, past which the lists stand
// in (see refresh). A row's bits are current from its input's last sync
// on, and those of an input that went idle stay put until it is active
// again, when its first sync clears them: every VOQ the input had listed
// went empty, so its stale bit is set. Every bit in the window, current
// or idle, lies at the release its head record holds — headRow, the
// records' one writer, has not refreshed the record since the bit was
// set — so a sync finds the bit it clears without a search.

// unitPorts reports whether every port of sw has capacity 1.
func unitPorts(sw switchnet.Switch) bool {
	for _, caps := range [][]int{sw.InCaps, sw.OutCaps} {
		for _, c := range caps {
			if c != 1 {
				return false
			}
		}
	}
	return true
}

// ofMinSlots and ofMaxSlots are the fewest and the most release slots a
// window has: at most 128 bytes per VOQ of the scope.
const (
	ofMinSlots = 64
	ofMaxSlots = 1024
)

// windowed reports whether the window picks: on unit ports, while the
// pending releases span it.
func (p *OldestFirst) windowed() bool { return p.unit && !p.wide }

// buildUnit lays the window out for the View's scope, over more slots
// than the pending releases span and as many as its storage holds, and
// fills it from every active input's heads.
func (p *OldestFirst) buildUnit(v *View) {
	rt := v.rt
	p.k, p.nk, p.mOut = v.k, rt.nshards, rt.mOut
	p.rows = (rt.sw.NumIn() + p.nk - 1) / p.nk
	p.rw, p.nw = (p.rows+63)/64, rt.nw
	p.stride = p.rw + p.rows*p.nw
	p.slots = ofMinSlots
	for int64(p.slots) <= p.newest-p.oldest || p.slots < ofMaxSlots && 2*p.slots*p.stride <= cap(p.win) {
		p.slots *= 2
	}
	if p.slots*p.stride > cap(p.win) {
		p.alloc(p.rows)
	}
	p.win = p.win[:p.slots*p.stride]
	clear(p.win)
	for wi := range p.mask {
		p.mask[wi] = ^uint64(0)
	}
	for a := range v.NumActiveInputs() {
		in := v.ActiveInput(a)
		v.headRow(in)
		p.listUnit(v, in)
	}
	p.built = true
}

// isZero reports whether every word of s is 0.
func isZero(s []uint64) bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// syncUnit moves, in input in's row, the bits of the stale VOQs in
// p.mask: it clears each at the release its head record holds, refreshes
// the records through headRow (which clears the input's stale bits), and
// sets the bits of the heads still active at their releases.
//
//flowsched:hotpath
func (p *OldestFirst) syncUnit(v *View, in int) {
	r := in / p.nk
	rin, rbit := r>>6, uint64(1)<<uint(r&63)
	off := p.rw + r*p.nw
	row := v.rt.heads[in*p.mOut : (in+1)*p.mOut]
	for wi, w := range p.mask {
		for ; w != 0; w &= w - 1 {
			out := wi<<6 + bits.TrailingZeros64(w)
			s := p.slot(row[out].rel)
			outs := p.win[s+off : s+off+p.nw]
			if outs[wi] &^= 1 << uint(out&63); isZero(outs) {
				p.win[s+rin] &^= rbit
			}
		}
	}
	v.headRow(in)
	p.listUnit(v, in)
}

// listUnit sets, in input in's row, the bits of the active VOQs in
// p.mask at the releases their refreshed head records hold.
func (p *OldestFirst) listUnit(v *View, in int) {
	r := in / p.nk
	rin, rbit := r>>6, uint64(1)<<uint(r&63)
	off := p.rw + r*p.nw
	row := v.rt.heads[in*p.mOut : (in+1)*p.mOut]
	for wi, w := range v.voqWords(in) {
		for w &= p.mask[wi]; w != 0; w &= w - 1 {
			out := wi<<6 + bits.TrailingZeros64(w)
			s := p.slot(row[out].rel)
			p.win[s+off+wi] |= 1 << uint(out&63)
			p.win[s+rin] |= rbit
		}
	}
}

// slot returns the index in p.win of release rel's slot.
func (p *OldestFirst) slot(rel int64) int {
	return int(uint64(rel)&uint64(p.slots-1)) * p.stride
}

// pickUnit is the window's pick, in two passes: matchUnit decides the
// round's matching from the window and the free-port masks alone, and
// commitUnit takes the matched heads in the order decided.
//
//flowsched:hotpath
func (p *OldestFirst) pickUnit(v *View) {
	p.matchUnit(v)
	commitUnit(v, p.pairs)
}

// matchUnit walks the pending releases oldest first and, at each,
// matches every free input with a head there, in port order, to its
// lowest free output, until the scope's inputs or the outputs it can see
// are spent. It records each pair in p.pairs and reads no flow record.
//
//flowsched:hotpath
func (p *OldestFirst) matchUnit(v *View) {
	p.pairs = p.pairs[:0]
	clear(p.freeIn)
	nIn, nOut := 0, fillFree(v, p.freeOut)
	for a := range v.NumActiveInputs() {
		if in := v.ActiveInput(a); v.InputFree(in) > 0 {
			r := in / p.nk
			p.freeIn[r>>6] |= 1 << uint(r&63)
			nIn++
		}
	}
	for rel := p.oldest; rel <= p.newest && nIn > 0 && nOut > 0; rel++ {
		s := p.slot(rel)
		for wi, w := range p.win[s : s+p.rw] {
			for w &= p.freeIn[wi]; w != 0; w &= w - 1 {
				r := wi<<6 + bits.TrailingZeros64(w)
				p.visited++
				off := s + p.rw + r*p.nw
				for oi, ow := range p.win[off : off+p.nw] {
					if ow &= p.freeOut[oi]; ow == 0 {
						continue
					}
					out := oi<<6 + bits.TrailingZeros64(ow)
					appendReserved(&p.pairs, int32((r*p.nk+p.k)*p.mOut+out))
					p.freeIn[wi] &^= 1 << uint(r&63)
					p.freeOut[oi] &^= 1 << uint(out&63)
					if nIn, nOut = nIn-1, nOut-1; nIn == 0 || nOut == 0 {
						return
					}
					break
				}
			}
		}
	}
}
