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

func checkValidMatching(t *testing.T, nR int, matchL []int, adj [][]int) {
	t.Helper()
	seen := make([]bool, nR)
	for l, r := range matchL {
		if r == NoMatch {
			continue
		}
		if r < 0 || r >= nR {
			t.Fatalf("left %d matched out of range: %d", l, r)
		}
		if seen[r] {
			t.Fatalf("right %d matched twice", r)
		}
		seen[r] = true
		found := false
		for _, x := range adj[l] {
			if x == r {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("matched pair (%d,%d) is not an edge", l, r)
		}
	}
}

func TestMaxCardinalitySimple(t *testing.T) {
	// Perfect matching exists on 3x3.
	adj := [][]int{{0, 1}, {0}, {1, 2}}
	m := MaxCardinality(3, 3, adj)
	checkValidMatching(t, 3, m, adj)
	if Cardinality(m) != 3 {
		t.Fatalf("cardinality = %d, want 3", Cardinality(m))
	}
}

func TestMaxCardinalityEmpty(t *testing.T) {
	if m := MaxCardinality(0, 0, nil); len(m) != 0 {
		t.Fatal("empty graph should give empty matching")
	}
	m := MaxCardinality(2, 2, [][]int{{}, {}})
	if Cardinality(m) != 0 {
		t.Fatal("edgeless graph must have empty matching")
	}
}

func TestQuickMaxCardinalityMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nL, nR, adj := randomBipartite(rng, 7)
		m := MaxCardinality(nL, nR, adj)
		// Validity.
		seen := make([]bool, nR)
		for l, r := range m {
			if r == NoMatch {
				continue
			}
			if seen[r] {
				return false
			}
			seen[r] = true
			ok := false
			for _, x := range adj[l] {
				if x == r {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return Cardinality(m) == bruteMaxCardinality(nL, nR, adj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestMinCostAssignmentKnown(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	assign, total := MinCostAssignment(cost)
	if total != 5 {
		t.Fatalf("total = %v, want 5", total)
	}
	// Optimal: row0->col1 (1), row1->col0 (2), row2->col2 (2).
	want := []int{1, 0, 2}
	for i := range want {
		if assign[i] != want[i] {
			t.Fatalf("assign = %v, want %v", assign, want)
		}
	}
}

func TestMinCostAssignmentEmpty(t *testing.T) {
	if a, c := MinCostAssignment(nil); a != nil || c != 0 {
		t.Fatal("empty assignment should be nil, 0")
	}
}

func TestMaxWeightSimple(t *testing.T) {
	adj := [][]int{{0, 1}, {0}}
	w := func(l, r int) float64 {
		if l == 0 && r == 0 {
			return 10
		}
		if l == 0 && r == 1 {
			return 3
		}
		return 4 // (1,0)
	}
	m := MaxWeight(2, 2, adj, w)
	checkValidMatching(t, 2, m, adj)
	// Optimal is the single heavy edge (0,0): 10 beats 3+4=7.
	if got := MatchWeight(m, w); got != 10 {
		t.Fatalf("weight = %v, want 10", got)
	}
}

func TestQuickMaxWeightMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nL, nR, adj := randomBipartite(rng, 6)
		weights := make(map[[2]int]float64)
		for l := range adj {
			for _, r := range adj[l] {
				weights[[2]int{l, r}] = float64(1 + rng.Intn(20))
			}
		}
		w := func(l, r int) float64 { return weights[[2]int{l, r}] }
		m := MaxWeight(nL, nR, adj, w)
		got := MatchWeight(m, w)
		want := bruteMaxWeight(nL, nR, adj, w)
		return got > want-1e-9 && got < want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
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

// Property: capacitated max cardinality with unit caps equals Hopcroft-Karp.
func TestQuickCapacitatedUnitEqualsHK(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nL, nR, adj := randomBipartite(rng, 6)
		capL := make([]int, nL)
		capR := make([]int, nR)
		for i := range capL {
			capL[i] = 1
		}
		for i := range capR {
			capR[i] = 1
		}
		var edges []Edge
		for l := range adj {
			for _, r := range adj[l] {
				edges = append(edges, Edge{l, r, 0})
			}
		}
		sel := CapacitatedMaxCardinality(capL, capR, edges)
		hk := MaxCardinality(nL, nR, adj)
		return len(sel) == Cardinality(hk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: capacitated max weight with unit caps equals Hungarian answer.
func TestQuickCapacitatedWeightEqualsHungarian(t *testing.T) {
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
		capL := make([]int, nL)
		capR := make([]int, nR)
		for i := range capL {
			capL[i] = 1
		}
		for i := range capR {
			capR[i] = 1
		}
		sel := CapacitatedMaxWeight(capL, capR, edges)
		total := 0
		for _, i := range sel {
			total += edges[i].Weight
		}
		w := func(l, r int) float64 { return float64(weights[[2]int{l, r}]) }
		m := MaxWeight(nL, nR, adj, w)
		return float64(total) == MatchWeight(m, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
