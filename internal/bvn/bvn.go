// Package bvn implements the Birkhoff-von Neumann style decomposition used
// in Theorem 1 of the paper: a bipartite multigraph with maximum degree D is
// partitioned into at most D matchings (König's edge-coloring theorem,
// computed constructively with Kempe-chain flips), and a port-replication
// transform reduces b-matchings to matchings for switches with non-unit
// capacities (the transformation of [24] cited in the paper).
package bvn

// Scratch is the working memory of Color, for a caller that decomposes many
// multigraphs one after another (internal/core colors each conversion window
// of Theorem 1 in one). Every array in it is rewritten before it is read, so
// a call depends on its arguments alone, and what a call returns is the
// Scratch's own until the next. The zero value is ready to use; Decompose
// runs in a fresh one, so what it returns is the caller's.
type Scratch struct {
	rep          [][2]int
	baseL, baseR []int
	cntL, cntR   []int
	degL, degR   []int
	// occL[u][c] / occR[v][c] is the edge currently colored c at the vertex,
	// or -1: views of palette-sized runs of occ.
	occ        []int
	occL, occR [][]int
	colors     []int
	chain      []int
}

// edgeColor colors the edges of a bipartite multigraph so that no two edges
// sharing an endpoint receive the same color, using at most max-degree
// colors (König's theorem), in s's memory. Edges are (left, right) pairs;
// parallel edges are allowed. It returns the color of each edge, every one
// in [0, numColors), and the number of colors used.
func (s *Scratch) edgeColor(nL, nR int, edges [][2]int) (colors []int, numColors int) {
	// Max degree bounds the palette size.
	degL, degR := zeroed(s.degL, nL), zeroed(s.degR, nR)
	s.degL, s.degR = degL, degR
	for _, e := range edges {
		degL[e[0]]++
		degR[e[1]]++
	}
	maxDeg := 0
	for _, d := range degL {
		if d > maxDeg {
			maxDeg = d
		}
	}
	for _, d := range degR {
		if d > maxDeg {
			maxDeg = d
		}
	}
	colors = grow(s.colors, len(edges))
	s.colors = colors
	if maxDeg == 0 {
		clear(colors)
		return colors, 0
	}

	occ := grow(s.occ, (nL+nR)*maxDeg)
	s.occ = occ
	for i := range occ {
		occ[i] = -1
	}
	occL, occR := grow(s.occL, nL), grow(s.occR, nR)
	s.occL, s.occR = occL, occR
	for u := range occL {
		occL[u] = occ[u*maxDeg : (u+1)*maxDeg : (u+1)*maxDeg]
	}
	occ = occ[nL*maxDeg:]
	for v := range occR {
		occR[v] = occ[v*maxDeg : (v+1)*maxDeg : (v+1)*maxDeg]
	}
	for i := range colors {
		colors[i] = -1
	}

	freeAt := func(occ []int) int {
		for c, id := range occ {
			if id == -1 {
				return c
			}
		}
		return -1 // cannot happen: palette size = max degree
	}

	for id, e := range edges {
		u, v := e[0], e[1]
		a := freeAt(occL[u])
		b := freeAt(occR[v])
		if a == b {
			colors[id] = a
			occL[u][a] = id
			occR[v][a] = id
			continue
		}
		// Make color a free at v by flipping the alternating a/b Kempe
		// chain starting at v. In a bipartite graph the chain cannot reach
		// u, so a stays free at u.
		if occR[v][a] != -1 {
			s.flipChain(edges, v, a, b)
		}
		colors[id] = a
		occL[u][a] = id
		occR[v][a] = id
	}

	used := 0
	for _, c := range colors {
		if c+1 > used {
			used = c + 1
		}
	}
	return colors, used
}

// grow returns s resized to n, reallocated only when its capacity is short;
// the contents are whatever s held.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed is grow with every entry 0.
func zeroed(s []int, n int) []int {
	s = grow(s, n)
	clear(s)
	return s
}

// flipChain swaps colors a and b along the maximal alternating chain that
// starts at right vertex v with an edge colored a.
func (s *Scratch) flipChain(edges [][2]int, v, a, b int) {
	colors, occL, occR := s.colors, s.occL, s.occR
	// Collect the chain first, then repaint; repainting while walking
	// corrupts the occupancy lookups.
	chain := s.chain[:0]
	onRight := true
	vert := v
	col := a
	for {
		var id int
		if onRight {
			id = occR[vert][col]
		} else {
			id = occL[vert][col]
		}
		if id == -1 {
			break
		}
		chain = append(chain, id)
		if onRight {
			vert = edges[id][0]
		} else {
			vert = edges[id][1]
		}
		onRight = !onRight
		if col == a {
			col = b
		} else {
			col = a
		}
	}
	s.chain = chain
	for _, id := range chain {
		old := colors[id]
		next := a
		if old == a {
			next = b
		}
		u2, v2 := edges[id][0], edges[id][1]
		if occL[u2][old] == id {
			occL[u2][old] = -1
		}
		if occR[v2][old] == id {
			occR[v2][old] = -1
		}
		colors[id] = next
		occL[u2][next] = id
		occR[v2][next] = id
	}
}

// Matchings groups edge indices by color, producing the decomposition into
// matchings. colors and numColors are as Color returns them.
func Matchings(colors []int, numColors int) [][]int {
	groups := make([][]int, numColors)
	for id, c := range colors {
		if c >= 0 {
			groups[c] = append(groups[c], id)
		}
	}
	return groups
}

// replicate applies the b-matching-to-matching transform from the proof of
// Theorem 1: each left port l is replicated capL[l] times and each right
// port r capR[r] times, and every edge is attached to replicas of its
// endpoints in round-robin order. The resulting multigraph has maximum
// degree at most max_p ceil(deg(p)/cap(p)). It returns the replicated edge
// list, in s's memory, and the replica counts on each side.
func (s *Scratch) replicate(edges [][2]int, capL, capR []int) (rep [][2]int, nRepL, nRepR int) {
	baseL, baseR := zeroed(s.baseL, len(capL)), zeroed(s.baseR, len(capR))
	s.baseL, s.baseR = baseL, baseR
	for l := 1; l < len(capL); l++ {
		baseL[l] = baseL[l-1] + capL[l-1]
	}
	for r := 1; r < len(capR); r++ {
		baseR[r] = baseR[r-1] + capR[r-1]
	}
	if len(capL) > 0 {
		nRepL = baseL[len(capL)-1] + capL[len(capL)-1]
	}
	if len(capR) > 0 {
		nRepR = baseR[len(capR)-1] + capR[len(capR)-1]
	}
	cntL, cntR := zeroed(s.cntL, len(capL)), zeroed(s.cntR, len(capR))
	s.cntL, s.cntR = cntL, cntR
	rep = grow(s.rep, len(edges))
	s.rep = rep
	for i, e := range edges {
		l, r := e[0], e[1]
		rep[i] = [2]int{baseL[l] + cntL[l]%capL[l], baseR[r] + cntR[r]%capR[r]}
		cntL[l]++
		cntR[r]++
	}
	return rep, nRepL, nRepR
}

// Decompose partitions the edges of a capacitated bipartite multigraph into
// classes such that within each class every left port l carries at most
// capL[l] edges and every right port r at most capR[r]. It combines
// port replication with edge coloring and returns the classes as slices of edge
// indices. The number of classes is at most max_p ceil(deg(p)/cap(p)).
func Decompose(edges [][2]int, capL, capR []int) [][]int {
	var s Scratch
	return Matchings(s.Color(edges, capL, capR))
}

// Color is Decompose without the grouping, in s's memory: the class of each
// edge, every one in [0, numColors), and the number of classes, which
// Matchings turns into Decompose's classes. colors is s's until its next
// call.
func (s *Scratch) Color(edges [][2]int, capL, capR []int) (colors []int, numColors int) {
	rep, nRepL, nRepR := s.replicate(edges, capL, capR)
	return s.edgeColor(nRepL, nRepR, rep)
}
