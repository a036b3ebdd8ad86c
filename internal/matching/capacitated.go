// Package matching solves the capacitated bipartite matchings
// (b-matchings) the scheduling heuristics of Section 5.2.2 pick each
// round: every port may join up to its capacity of selected edges.
// CapacitatedMaxCardinality is Dinic's max flow over flownet, which on
// unit capacities has Hopcroft–Karp's O(E√V) bound;
// CapacitatedMaxWeight is a min-cost flow that augments only profitable
// paths. Together they replace the Lemon graph library used by the
// paper's original simulator.
//
//flowsched:deterministic
package matching

import "flowsched/internal/flownet"

// Edge is a candidate edge for capacitated matching: it joins left vertex L
// to right vertex R with an integer weight (only used by the weighted
// variants; the unit of "use" is one edge regardless of weight).
type Edge struct {
	L, R   int
	Weight int
}

// CapacitatedMaxCardinality selects a maximum number of edges such that
// each left vertex l appears in at most capL[l] selected edges and each
// right vertex r in at most capR[r]. It returns the indices of selected
// edges. This is the b-matching generalization needed for switches with
// non-unit port capacities; solved by Dinic's max flow.
func CapacitatedMaxCardinality(capL, capR []int, edges []Edge) []int {
	nL, nR := len(capL), len(capR)
	g := flownet.New(nL + nR + 2)
	s, t := nL+nR, nL+nR+1
	for l, c := range capL {
		g.AddEdge(s, l, c, 0)
	}
	for r, c := range capR {
		g.AddEdge(nL+r, t, c, 0)
	}
	ids := make([]int, len(edges))
	for i, e := range edges {
		ids[i] = g.AddEdge(e.L, nL+e.R, 1, 0)
	}
	g.MaxFlow(s, t)
	var selected []int
	for i := range edges {
		if g.Flow(ids[i]) > 0 {
			selected = append(selected, i)
		}
	}
	return selected
}

// CapacitatedMaxWeight selects a set of edges of maximum total weight
// subject to the same degree capacities as CapacitatedMaxCardinality.
// Weights must be non-negative. It returns the indices of selected edges.
// Solved by min-cost flow that augments only profitable paths.
func CapacitatedMaxWeight(capL, capR []int, edges []Edge) []int {
	nL, nR := len(capL), len(capR)
	g := flownet.New(nL + nR + 2)
	s, t := nL+nR, nL+nR+1
	for l, c := range capL {
		g.AddEdge(s, l, c, 0)
	}
	for r, c := range capR {
		g.AddEdge(nL+r, t, c, 0)
	}
	ids := make([]int, len(edges))
	for i, e := range edges {
		w := e.Weight
		if w < 0 {
			w = 0
		}
		ids[i] = g.AddEdge(e.L, nL+e.R, 1, -w)
	}
	g.MaxProfitFlow(s, t)
	var selected []int
	for i := range edges {
		if g.Flow(ids[i]) > 0 {
			selected = append(selected, i)
		}
	}
	return selected
}
