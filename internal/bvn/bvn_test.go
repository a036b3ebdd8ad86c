package bvn

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// EdgeColor is edgeColor in a fresh Scratch: the coloring is the caller's.
func EdgeColor(nL, nR int, edges [][2]int) (colors []int, numColors int) {
	var s Scratch
	return s.edgeColor(nL, nR, edges)
}

// Replicate is replicate in a fresh Scratch: the edges are the caller's.
func Replicate(edges [][2]int, capL, capR []int) (rep [][2]int, nRepL, nRepR int) {
	var s Scratch
	return s.replicate(edges, capL, capR)
}

// maxDegree computes the maximum vertex degree of a bipartite multigraph.
func maxDegree(nL, nR int, edges [][2]int) int {
	degL := make([]int, nL)
	degR := make([]int, nR)
	m := 0
	for _, e := range edges {
		degL[e[0]]++
		degR[e[1]]++
		if degL[e[0]] > m {
			m = degL[e[0]]
		}
		if degR[e[1]] > m {
			m = degR[e[1]]
		}
	}
	return m
}

// checkProper verifies that no two edges sharing an endpoint share a color.
func checkProper(t *testing.T, nL, nR int, edges [][2]int, colors []int) {
	t.Helper()
	seenL := make(map[[2]int]bool)
	seenR := make(map[[2]int]bool)
	for id, e := range edges {
		c := colors[id]
		if c < 0 {
			t.Fatalf("edge %d uncolored", id)
		}
		kl := [2]int{e[0], c}
		kr := [2]int{e[1], c}
		if seenL[kl] {
			t.Fatalf("left vertex %d has two edges colored %d", e[0], c)
		}
		if seenR[kr] {
			t.Fatalf("right vertex %d has two edges colored %d", e[1], c)
		}
		seenL[kl] = true
		seenR[kr] = true
	}
}

func TestEdgeColorTriangleFree(t *testing.T) {
	edges := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	colors, num := EdgeColor(2, 2, edges)
	checkProper(t, 2, 2, edges, colors)
	if num != 2 {
		t.Fatalf("used %d colors, want 2 (max degree)", num)
	}
}

func TestEdgeColorEmpty(t *testing.T) {
	colors, num := EdgeColor(3, 3, nil)
	if len(colors) != 0 || num != 0 {
		t.Fatal("empty graph should use no colors")
	}
}

func TestEdgeColorParallelEdges(t *testing.T) {
	// Three parallel edges need three colors.
	edges := [][2]int{{0, 0}, {0, 0}, {0, 0}}
	colors, num := EdgeColor(1, 1, edges)
	checkProper(t, 1, 1, edges, colors)
	if num != 3 {
		t.Fatalf("used %d colors, want 3", num)
	}
}

func TestEdgeColorStar(t *testing.T) {
	// A star needs exactly deg colors.
	edges := [][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}}
	colors, num := EdgeColor(1, 4, edges)
	checkProper(t, 1, 4, edges, colors)
	if num != 4 {
		t.Fatalf("used %d colors, want 4", num)
	}
}

// Property: König bound — number of colors equals max degree exactly for
// our greedy-with-flips construction (at most D, and at least D trivially).
func TestQuickEdgeColorKonig(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nL := 1 + rng.Intn(8)
		nR := 1 + rng.Intn(8)
		nE := rng.Intn(40)
		edges := make([][2]int, nE)
		for i := range edges {
			edges[i] = [2]int{rng.Intn(nL), rng.Intn(nR)}
		}
		colors, num := EdgeColor(nL, nR, edges)
		// Proper coloring check.
		seen := make(map[[3]int]bool)
		for id, e := range edges {
			c := colors[id]
			if c < 0 || c >= num && nE > 0 {
				return false
			}
			kl := [3]int{0, e[0], c}
			kr := [3]int{1, e[1], c}
			if seen[kl] || seen[kr] {
				return false
			}
			seen[kl] = true
			seen[kr] = true
		}
		return num <= maxDegree(nL, nR, edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchingsPartition(t *testing.T) {
	edges := [][2]int{{0, 0}, {0, 1}, {1, 0}}
	colors, num := EdgeColor(2, 2, edges)
	groups := Matchings(colors, num)
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != len(edges) {
		t.Fatalf("groups cover %d edges, want %d", total, len(edges))
	}
}

func TestReplicateRoundRobin(t *testing.T) {
	// One left port with capacity 2, three incident edges: replicas get
	// degrees 2 and 1.
	edges := [][2]int{{0, 0}, {0, 1}, {0, 2}}
	rep, nRepL, nRepR := Replicate(edges, []int{2}, []int{1, 1, 1})
	if nRepL != 2 || nRepR != 3 {
		t.Fatalf("replica counts = (%d,%d), want (2,3)", nRepL, nRepR)
	}
	if rep[0][0] != 0 || rep[1][0] != 1 || rep[2][0] != 0 {
		t.Fatalf("round robin broken: %v", rep)
	}
}

// Property: Decompose respects capacities within each class and the class
// count obeys the ceil(deg/cap) bound.
func TestQuickDecomposeRespectsCaps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nL := 1 + rng.Intn(6)
		nR := 1 + rng.Intn(6)
		capL := make([]int, nL)
		capR := make([]int, nR)
		for i := range capL {
			capL[i] = 1 + rng.Intn(3)
		}
		for i := range capR {
			capR[i] = 1 + rng.Intn(3)
		}
		nE := rng.Intn(30)
		edges := make([][2]int, nE)
		degL := make([]int, nL)
		degR := make([]int, nR)
		for i := range edges {
			l, r := rng.Intn(nL), rng.Intn(nR)
			edges[i] = [2]int{l, r}
			degL[l]++
			degR[r]++
		}
		classes := Decompose(edges, capL, capR)
		// Every edge appears exactly once.
		seen := make([]bool, nE)
		for _, cls := range classes {
			loadL := make([]int, nL)
			loadR := make([]int, nR)
			for _, id := range cls {
				if seen[id] {
					return false
				}
				seen[id] = true
				loadL[edges[id][0]]++
				loadR[edges[id][1]]++
			}
			for l := range loadL {
				if loadL[l] > capL[l] {
					return false
				}
			}
			for r := range loadR {
				if loadR[r] > capR[r] {
					return false
				}
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		// Class count bound: max_p ceil(deg/cap).
		bound := 0
		for l := range degL {
			if b := (degL[l] + capL[l] - 1) / capL[l]; b > bound {
				bound = b
			}
		}
		for r := range degR {
			if b := (degR[r] + capR[r] - 1) / capR[r]; b > bound {
				bound = b
			}
		}
		return len(classes) <= bound || nE == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestScratchColorsAsFresh: one Scratch, colouring capacitated multigraphs
// of every size in turn, gives each the colouring a fresh one gives — so
// Matchings of it is Decompose's classes — and, colouring the last one
// again, allocates nothing.
func TestScratchColorsAsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var s Scratch
	var edges [][2]int
	var capL, capR []int
	for trial := range 40 {
		nL, nR := 1+rng.Intn(6), 1+rng.Intn(6)
		capL, capR = make([]int, nL), make([]int, nR)
		for i := range capL {
			capL[i] = 1 + rng.Intn(3)
		}
		for i := range capR {
			capR[i] = 1 + rng.Intn(3)
		}
		edges = make([][2]int, rng.Intn(30))
		for i := range edges {
			edges[i] = [2]int{rng.Intn(nL), rng.Intn(nR)}
		}
		var fresh Scratch
		want, wantNum := fresh.Color(edges, capL, capR)
		got, num := s.Color(edges, capL, capR)
		if num != wantNum || !slices.Equal(got, want) {
			t.Fatalf("trial %d: reused scratch colours %v (%d), a fresh one %v (%d)", trial, got, num, want, wantNum)
		}
		if classes := Decompose(edges, capL, capR); !slices.EqualFunc(classes, Matchings(got, num), slices.Equal) {
			t.Fatalf("trial %d: Decompose %v, Matchings of the colouring %v", trial, classes, Matchings(got, num))
		}
	}
	if n := testing.AllocsPerRun(10, func() { s.Color(edges, capL, capR) }); n != 0 {
		t.Errorf("%v allocations colouring a multigraph the Scratch has coloured, want 0", n)
	}
}
