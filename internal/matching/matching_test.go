package matching

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteMaxCardinality enumerates all matchings of a small bipartite graph.
func bruteMaxCardinality(nL, nR int, adj [][]int) int {
	usedR := make([]bool, nR)
	var rec func(l int) int
	rec = func(l int) int {
		if l == nL {
			return 0
		}
		best := rec(l + 1) // leave l unmatched
		for _, r := range adj[l] {
			if !usedR[r] {
				usedR[r] = true
				if v := 1 + rec(l+1); v > best {
					best = v
				}
				usedR[r] = false
			}
		}
		return best
	}
	return rec(0)
}

// bruteMaxWeight enumerates all matchings maximizing total weight.
func bruteMaxWeight(nL, nR int, adj [][]int, w func(l, r int) float64) float64 {
	usedR := make([]bool, nR)
	var rec func(l int) float64
	rec = func(l int) float64 {
		if l == nL {
			return 0
		}
		best := rec(l + 1)
		for _, r := range adj[l] {
			if !usedR[r] {
				usedR[r] = true
				if v := w(l, r) + rec(l+1); v > best {
					best = v
				}
				usedR[r] = false
			}
		}
		return best
	}
	return rec(0)
}

func randomBipartite(rng *rand.Rand, maxN int) (nL, nR int, adj [][]int) {
	nL = 1 + rng.Intn(maxN)
	nR = 1 + rng.Intn(maxN)
	adj = make([][]int, nL)
	for l := 0; l < nL; l++ {
		for r := 0; r < nR; r++ {
			if rng.Intn(3) == 0 {
				adj[l] = append(adj[l], r)
			}
		}
	}
	return
}

func TestCapacitatedMaxCardinalityRespectsCaps(t *testing.T) {
	capL := []int{2, 1}
	capR := []int{1, 2}
	edges := []Edge{{0, 0, 0}, {0, 1, 0}, {0, 1, 0}, {1, 0, 0}, {1, 1, 0}}
	sel := CapacitatedMaxCardinality(capL, capR, edges)
	loadL := make([]int, 2)
	loadR := make([]int, 2)
	for _, i := range sel {
		loadL[edges[i].L]++
		loadR[edges[i].R]++
	}
	for l, c := range capL {
		if loadL[l] > c {
			t.Fatalf("left %d over capacity", l)
		}
	}
	for r, c := range capR {
		if loadR[r] > c {
			t.Fatalf("right %d over capacity", r)
		}
	}
	if len(sel) != 3 {
		t.Fatalf("selected %d edges, want 3", len(sel))
	}
}

func TestCapacitatedMaxWeightPicksHeavy(t *testing.T) {
	capL := []int{1}
	capR := []int{1, 1}
	edges := []Edge{{0, 0, 5}, {0, 1, 9}}
	sel := CapacitatedMaxWeight(capL, capR, edges)
	if len(sel) != 1 || edges[sel[0]].Weight != 9 {
		t.Fatalf("selected %v, want the weight-9 edge", sel)
	}
}

// unitCaps is a capacity of one on each of n vertices.
func unitCaps(n int) []int {
	caps := make([]int, n)
	for i := range caps {
		caps[i] = 1
	}
	return caps
}

// Property: at unit capacities the capacitated max cardinality is the
// brute-force maximum matching's size.
func TestQuickCapacitatedUnitMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nL, nR, adj := randomBipartite(rng, 6)
		var edges []Edge
		for l := range adj {
			for _, r := range adj[l] {
				edges = append(edges, Edge{l, r, 0})
			}
		}
		sel := CapacitatedMaxCardinality(unitCaps(nL), unitCaps(nR), edges)
		return len(sel) == bruteMaxCardinality(nL, nR, adj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: at unit capacities the capacitated max weight is the
// brute-force maximum-weight matching's weight.
func TestQuickCapacitatedWeightUnitMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nL, nR, adj := randomBipartite(rng, 5)
		weights := make(map[[2]int]int)
		var edges []Edge
		for l := range adj {
			for _, r := range adj[l] {
				wt := 1 + rng.Intn(15)
				weights[[2]int{l, r}] = wt
				edges = append(edges, Edge{l, r, wt})
			}
		}
		sel := CapacitatedMaxWeight(unitCaps(nL), unitCaps(nR), edges)
		total := 0
		for _, i := range sel {
			total += edges[i].Weight
		}
		w := func(l, r int) float64 { return float64(weights[[2]int{l, r}]) }
		return float64(total) == bruteMaxWeight(nL, nR, adj, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// bruteBMatching enumerates every subset of edges (len(edges) ≤ 12) and
// returns the largest size and the largest weight of a subset in which
// each vertex's degree stays within its capacity.
func bruteBMatching(capL, capR []int, edges []Edge) (size, weight int) {
	loadL := make([]int, len(capL))
	loadR := make([]int, len(capR))
	for mask := 0; mask < 1<<len(edges); mask++ {
		clear(loadL)
		clear(loadR)
		n, w, ok := 0, 0, true
		for i, e := range edges {
			if mask&(1<<i) == 0 {
				continue
			}
			loadL[e.L]++
			loadR[e.R]++
			if loadL[e.L] > capL[e.L] || loadR[e.R] > capR[e.R] {
				ok = false
				break
			}
			n, w = n+1, w+e.Weight
		}
		if ok {
			size, weight = max(size, n), max(weight, w)
		}
	}
	return size, weight
}

// Property: at port capacities 1-3, with parallel edges allowed (several
// flows on one port pair), both capacitated matchers return a subset
// within the capacities whose size, respectively weight, is the
// brute-force b-matching optimum. The heuristics solve exactly these
// whenever a port's capacity exceeds one.
func TestQuickCapacitatedBMatchingMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capL := make([]int, 1+rng.Intn(4))
		capR := make([]int, 1+rng.Intn(4))
		for i := range capL {
			capL[i] = 1 + rng.Intn(3)
		}
		for i := range capR {
			capR[i] = 1 + rng.Intn(3)
		}
		edges := make([]Edge, rng.Intn(13))
		for i := range edges {
			edges[i] = Edge{rng.Intn(len(capL)), rng.Intn(len(capR)), rng.Intn(10)}
		}
		wantSize, wantWeight := bruteBMatching(capL, capR, edges)

		// within reports a valid selection's size and weight.
		within := func(sel []int) (int, int, bool) {
			loadL := make([]int, len(capL))
			loadR := make([]int, len(capR))
			seen := make([]bool, len(edges))
			w := 0
			for _, i := range sel {
				if i < 0 || i >= len(edges) || seen[i] {
					return 0, 0, false
				}
				seen[i] = true
				e := edges[i]
				loadL[e.L]++
				loadR[e.R]++
				if loadL[e.L] > capL[e.L] || loadR[e.R] > capR[e.R] {
					return 0, 0, false
				}
				w += e.Weight
			}
			return len(sel), w, true
		}
		n, _, ok := within(CapacitatedMaxCardinality(capL, capR, edges))
		if !ok || n != wantSize {
			t.Logf("seed %d: max cardinality %d (valid %v), brute force %d", seed, n, ok, wantSize)
			return false
		}
		_, w, ok := within(CapacitatedMaxWeight(capL, capR, edges))
		if !ok || w != wantWeight {
			t.Logf("seed %d: max weight %d (valid %v), brute force %d", seed, w, ok, wantWeight)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
