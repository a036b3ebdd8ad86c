package stream

import (
	"sort"

	"flowsched/internal/matching"
	"flowsched/internal/switchnet"
)

// paper is one of the online heuristics of Section 5.2.1, selecting each
// round from the open queue G_t: every pending flow, in admission order.
// On unit demands a selection is an exact capacitated matching — maximum
// cardinality (MaxCard, weight nil) or maximum weight; with general
// demands per-round demand matching is NP-hard, so the policy falls back
// to first fit in weight order (MaxCard: smallest demand, then oldest).
// A matching needs the whole pending set, so paper is not Shardable and
// pins the runtime to Shards == 1.
type paper struct {
	name string
	// weight is a flow's weight in round v.Round(); nil for MaxCard.
	weight func(v *View, f switchnet.Flow) int
	// pend and edges are per-pick scratch, emptied by every Pick.
	pend  []paperFlow
	edges []matching.Edge
}

type paperFlow struct {
	id ID
	f  switchnet.Flow
}

// maxCard schedules a maximum-cardinality feasible set each round,
// maximizing port utilization. The paper expects it to do well on average
// response time and poorly on maximum response time.
func maxCard() Policy { return &paper{name: "MaxCard"} }

// minRTime weighs a flow by its age t - r_e (+1 so fresh flows still
// count): the longer a flow has waited, the higher its priority. Best for
// maximum response time.
func minRTime() Policy {
	return &paper{name: "MinRTime", weight: func(v *View, f switchnet.Flow) int { return v.Round() - f.Release + 1 }}
}

// maxWeight weighs a flow by the queue sizes at its two endpoints — the
// classic max-weight crossbar policy. The paper's compromise choice.
func maxWeight() Policy {
	return &paper{name: "MaxWeight", weight: func(v *View, f switchnet.Flow) int { return v.QueueIn(f.In) + v.QueueOut(f.Out) }}
}

// Name implements Policy.
func (p *paper) Name() string { return p.name }

// Pick implements Policy: it matches on unit demands and first-fits
// otherwise, through Take, which refuses a flow its ports cannot carry.
func (p *paper) Pick(v *View) {
	p.pend = p.pend[:0]
	unit := true
	v.Each(func(id ID, _ int64, f switchnet.Flow) bool {
		p.pend = append(p.pend, paperFlow{id, f})
		unit = unit && f.Demand == 1
		return true
	})
	if !unit {
		sort.Slice(p.pend, func(a, b int) bool { return p.before(v, p.pend[a].f, p.pend[b].f) })
		for _, pf := range p.pend {
			v.Take(pf.id)
		}
		return
	}
	p.edges = p.edges[:0]
	for _, pf := range p.pend {
		w := 0
		if p.weight != nil {
			w = p.weight(v, pf.f)
		}
		p.edges = append(p.edges, matching.Edge{L: pf.f.In, R: pf.f.Out, Weight: w})
	}
	sw := v.Switch()
	var picks []int
	if p.weight == nil {
		picks = matching.CapacitatedMaxCardinality(sw.InCaps, sw.OutCaps, p.edges)
	} else {
		picks = matching.CapacitatedMaxWeight(sw.InCaps, sw.OutCaps, p.edges)
	}
	for _, k := range picks {
		if !v.Take(p.pend[k].id) {
			v.Fail("stream: policy %q matched a flow its ports cannot carry (%d->%d) in round %d",
				p.name, p.pend[k].f.In, p.pend[k].f.Out, v.Round())
			return
		}
	}
}

// before orders first fit: heavier first, or for MaxCard smaller demand
// first, then older.
func (p *paper) before(v *View, a, b switchnet.Flow) bool {
	if p.weight != nil {
		return p.weight(v, a) > p.weight(v, b)
	}
	if a.Demand != b.Demand {
		return a.Demand < b.Demand
	}
	return a.Release < b.Release
}
