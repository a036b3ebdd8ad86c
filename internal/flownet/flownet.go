// Package flownet provides maximum-flow (Dinic) and minimum-cost
// maximum-flow solvers on integer-capacity networks. It replaces the graph
// toolkit (Lemon) used by the paper's original C++ simulator; the
// capacitated matchings of internal/matching, which the paper's
// heuristics in internal/stream select each round, are solved on it.
package flownet

import "math"

// arc is one directed edge of the residual network; arcs are stored in
// pairs, with arc i's reverse at i^1.
type arc struct {
	to   int
	cap  int
	cost int
}

// Graph is a flow network on vertices 0..N-1 built incrementally with
// AddEdge. The zero value is unusable; use New.
type Graph struct {
	n    int
	arcs []arc
	head [][]int // head[v] = indices into arcs leaving v
}

// New returns an empty flow network on n vertices.
func New(n int) *Graph {
	return &Graph{n: n, head: make([][]int, n)}
}

// AddEdge adds a directed edge from u to v with the given capacity and cost
// (cost is ignored by MaxFlow). It returns the edge's id, which can be used
// with Flow to recover the amount routed on the edge.
func (g *Graph) AddEdge(u, v, capacity, cost int) int {
	id := len(g.arcs)
	g.arcs = append(g.arcs, arc{to: v, cap: capacity, cost: cost})
	g.arcs = append(g.arcs, arc{to: u, cap: 0, cost: -cost})
	g.head[u] = append(g.head[u], id)
	g.head[v] = append(g.head[v], id+1)
	return id
}

// Flow returns the flow routed over the edge with the given id (the residual
// capacity of its reverse arc).
func (g *Graph) Flow(id int) int { return g.arcs[id^1].cap }

// MaxFlow computes the maximum s-t flow with Dinic's algorithm and returns
// its value. The residual capacities are updated in place, so Flow can be
// queried afterwards.
func (g *Graph) MaxFlow(s, t int) int {
	total := 0
	level := make([]int, g.n)
	iter := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for {
		// BFS to build level graph.
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, id := range g.head[v] {
				a := g.arcs[id]
				if a.cap > 0 && level[a.to] < 0 {
					level[a.to] = level[v] + 1
					queue = append(queue, a.to)
				}
			}
		}
		if level[t] < 0 {
			return total
		}
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := g.dfs(s, t, math.MaxInt, level, iter)
			if f == 0 {
				break
			}
			total += f
		}
	}
}

// dfs pushes blocking flow along the level graph.
func (g *Graph) dfs(v, t, limit int, level, iter []int) int {
	if v == t {
		return limit
	}
	for ; iter[v] < len(g.head[v]); iter[v]++ {
		id := g.head[v][iter[v]]
		a := g.arcs[id]
		if a.cap <= 0 || level[a.to] != level[v]+1 {
			continue
		}
		pushed := limit
		if a.cap < pushed {
			pushed = a.cap
		}
		f := g.dfs(a.to, t, pushed, level, iter)
		if f > 0 {
			g.arcs[id].cap -= f
			g.arcs[id^1].cap += f
			return f
		}
	}
	level[v] = -1
	return 0
}

// MinCostFlow sends up to maxAmount units of flow from s to t minimizing
// total cost, using successive shortest paths with Bellman-Ford (costs may
// be negative as long as the network has no negative cycle, which holds for
// the matching reductions in this repository). It returns the flow actually
// sent and its total cost.
func (g *Graph) MinCostFlow(s, t, maxAmount int) (flow, cost int) {
	return g.mcf(s, t, maxAmount, false)
}

// MaxProfitFlow augments s-t flow only while the cheapest augmenting path
// has strictly negative cost. With edge costs set to negated weights this
// maximizes total selected weight; it is the engine behind capacitated
// maximum-weight matchings.
func (g *Graph) MaxProfitFlow(s, t int) (flow, cost int) {
	return g.mcf(s, t, math.MaxInt, true)
}

func (g *Graph) mcf(s, t, maxAmount int, negOnly bool) (flow, cost int) {
	dist := make([]int, g.n)
	inQueue := make([]bool, g.n)
	prevArc := make([]int, g.n)
	for flow < maxAmount {
		// Bellman-Ford (SPFA) shortest path by cost.
		for i := range dist {
			dist[i] = math.MaxInt
			prevArc[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		inQueue[s] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			inQueue[v] = false
			for _, id := range g.head[v] {
				a := g.arcs[id]
				if a.cap <= 0 || dist[v] == math.MaxInt {
					continue
				}
				if nd := dist[v] + a.cost; nd < dist[a.to] {
					dist[a.to] = nd
					prevArc[a.to] = id
					if !inQueue[a.to] {
						queue = append(queue, a.to)
						inQueue[a.to] = true
					}
				}
			}
		}
		if dist[t] == math.MaxInt || (negOnly && dist[t] >= 0) {
			return flow, cost
		}
		// Find bottleneck along the path.
		push := maxAmount - flow
		for v := t; v != s; {
			id := prevArc[v]
			if g.arcs[id].cap < push {
				push = g.arcs[id].cap
			}
			v = g.arcs[id^1].to
		}
		for v := t; v != s; {
			id := prevArc[v]
			g.arcs[id].cap -= push
			g.arcs[id^1].cap += push
			v = g.arcs[id^1].to
		}
		flow += push
		cost += push * dist[t]
	}
	return flow, cost
}
