// Package matching implements bipartite matching algorithms used by the
// scheduling heuristics and the Birkhoff-von Neumann decomposition:
// Hopcroft-Karp maximum-cardinality matching, Hungarian maximum-weight
// matching, and capacitated variants built on min-cost flow. It replaces
// the Lemon graph library used by the paper's original simulator
// (Section 5.2.2).
//
//flowsched:deterministic
package matching

// NoMatch marks an unmatched vertex in matching results.
const NoMatch = -1

// MaxCardinality computes a maximum-cardinality matching of the bipartite
// graph with nL left and nR right vertices and adjacency lists adj (for
// each left vertex, the right vertices it neighbours). It returns, for each
// left vertex, the matched right vertex or NoMatch. Hopcroft-Karp,
// O(E*sqrt(V)).
func MaxCardinality(nL, nR int, adj [][]int) []int {
	matchL := make([]int, nL)
	matchR := make([]int, nR)
	for i := range matchL {
		matchL[i] = NoMatch
	}
	for j := range matchR {
		matchR[j] = NoMatch
	}
	dist := make([]int, nL)
	queue := make([]int, 0, nL)
	const inf = int(^uint(0) >> 1)

	bfs := func() bool {
		queue = queue[:0]
		for u := 0; u < nL; u++ {
			if matchL[u] == NoMatch {
				dist[u] = 0
				queue = append(queue, u)
			} else {
				dist[u] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, v := range adj[u] {
				w := matchR[v]
				if w == NoMatch {
					found = true
				} else if dist[w] == inf {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		return found
	}

	var dfs func(u int) bool
	dfs = func(u int) bool {
		for _, v := range adj[u] {
			w := matchR[v]
			if w == NoMatch || (dist[w] == dist[u]+1 && dfs(w)) {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		dist[u] = inf
		return false
	}

	for bfs() {
		for u := 0; u < nL; u++ {
			if matchL[u] == NoMatch {
				dfs(u)
			}
		}
	}
	return matchL
}

// Cardinality returns the number of matched left vertices in a matching
// produced by MaxCardinality or MaxWeight.
func Cardinality(matchL []int) int {
	c := 0
	for _, v := range matchL {
		if v != NoMatch {
			c++
		}
	}
	return c
}

// MinCostAssignment solves the n x n assignment problem for the given cost
// matrix, returning for each row the assigned column and the total cost.
// Hungarian algorithm with potentials, O(n^3). The matrix must be square.
func MinCostAssignment(cost [][]float64) ([]int, float64) {
	n := len(cost)
	if n == 0 {
		return nil, 0
	}
	const inf = 1e300
	// 1-indexed potentials over rows (u) and columns (v); way[j] is the
	// previous column on the augmenting path; p[j] is the row assigned to
	// column j.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1)
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	assign := make([]int, n)
	total := 0.0
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
			total += cost[p[j]-1][j-1]
		}
	}
	return assign, total
}

// MaxWeight computes a maximum-weight matching of the bipartite graph given
// by adjacency lists adj and edge weights weight(l, r) >= 0 for neighbouring
// pairs. Missing edges are treated as weight 0 and never matched. It
// returns, for each left vertex, the matched right vertex or NoMatch.
// Implemented by padding to a square assignment problem, O(max(nL,nR)^3).
func MaxWeight(nL, nR int, adj [][]int, weight func(l, r int) float64) []int {
	n := nL
	if nR > n {
		n = nR
	}
	if n == 0 {
		return nil
	}
	// Build a dense cost matrix for minimization: cost = -weight, with 0
	// for non-edges and padding.
	cost := make([][]float64, n)
	isEdge := make([]map[int]bool, nL)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	for l := 0; l < nL; l++ {
		isEdge[l] = make(map[int]bool, len(adj[l]))
		for _, r := range adj[l] {
			w := weight(l, r)
			if w < 0 {
				w = 0
			}
			if -w < cost[l][r] {
				cost[l][r] = -w
			}
			isEdge[l][r] = true
		}
	}
	assign, _ := MinCostAssignment(cost)
	matchL := make([]int, nL)
	for l := 0; l < nL; l++ {
		r := assign[l]
		if r < nR && isEdge[l][r] && weight(l, r) > 0 {
			matchL[l] = r
		} else {
			matchL[l] = NoMatch
		}
	}
	return matchL
}

// MatchWeight sums weight(l, matchL[l]) over matched left vertices.
func MatchWeight(matchL []int, weight func(l, r int) float64) float64 {
	total := 0.0
	for l, r := range matchL {
		if r != NoMatch {
			total += weight(l, r)
		}
	}
	return total
}
