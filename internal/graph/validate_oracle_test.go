package graph

// The clique and colouring validators scan the CSR adjacency with dense
// arrays. This file keeps the map-based implementations they replaced as
// oracles and requires identical verdicts on random and adversarial
// inputs; validate_registry_test.go does the same on algorithm output.

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// OracleIsClique is the map-based IsClique: every pair of entries must be
// distinct and joined by an edge of g.
func OracleIsClique(g *Graph, set []int) bool {
	have := g.HasEdgeSet()
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if set[i] == set[j] {
				return false
			}
			if !have[normPair(set[i], set[j])] {
				return false
			}
		}
	}
	return true
}

// OracleIsMaximalClique is the map-based IsMaximalClique.
func OracleIsMaximalClique(g *Graph, set []int) bool {
	if !OracleIsClique(g, set) {
		return false
	}
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	have := g.HasEdgeSet()
	for v := 0; v < g.N; v++ {
		if in[v] {
			continue
		}
		adjacentToAll := true
		for _, u := range set {
			if !have[normPair(u, v)] {
				adjacentToAll = false
				break
			}
		}
		if adjacentToAll {
			return false
		}
	}
	return true
}

// OracleIsProperEdgeColouring is the map-based IsProperEdgeColouring over
// (vertex, colour) keys.
func OracleIsProperEdgeColouring(g *Graph, colour []int) bool {
	if len(colour) != len(g.Edges) {
		return false
	}
	seen := make(map[[2]int]bool)
	for id, e := range g.Edges {
		c := colour[id]
		ku := [2]int{e.U, c}
		kv := [2]int{e.V, c}
		if seen[ku] || seen[kv] {
			return false
		}
		seen[ku] = true
		seen[kv] = true
	}
	return true
}

// OracleNumColours is the map-based NumColours.
func OracleNumColours(colour []int) int {
	set := make(map[int]bool, len(colour))
	for _, c := range colour {
		set[c] = true
	}
	return len(set)
}

// checkCliqueVerdicts fails t unless both clique validators agree with
// their oracles on (g, set).
func checkCliqueVerdicts(t *testing.T, label string, g *Graph, set []int) {
	t.Helper()
	if got, want := IsClique(g, set), OracleIsClique(g, set); got != want {
		t.Fatalf("%s: IsClique(%v) = %v, oracle %v", label, set, got, want)
	}
	if got, want := IsMaximalClique(g, set), OracleIsMaximalClique(g, set); got != want {
		t.Fatalf("%s: IsMaximalClique(%v) = %v, oracle %v", label, set, got, want)
	}
}

// checkColourVerdicts fails t unless the colouring validators agree with
// their oracles on (g, colour).
func checkColourVerdicts(t *testing.T, label string, g *Graph, colour []int) {
	t.Helper()
	if got, want := IsProperEdgeColouring(g, colour), OracleIsProperEdgeColouring(g, colour); got != want {
		t.Fatalf("%s: IsProperEdgeColouring = %v, oracle %v (colours %v)", label, got, want, colour)
	}
	if got, want := NumColours(colour), OracleNumColours(colour); got != want {
		t.Fatalf("%s: NumColours = %d, oracle %d (colours %v)", label, got, want, colour)
	}
}

// greedyMaximalClique extends seed to a maximal clique by scanning the
// vertices in id order.
func greedyMaximalClique(g *Graph, seed []int) []int {
	have := g.HasEdgeSet()
	set := append([]int(nil), seed...)
	for v := 0; v < g.N; v++ {
		ok := true
		for _, u := range set {
			if u == v || !have[normPair(u, v)] {
				ok = false
				break
			}
		}
		if ok {
			set = append(set, v)
		}
	}
	return set
}

// greedyEdgeColouring gives each edge in id order the smallest colour free
// at both endpoints: a proper colouring to mutate.
func greedyEdgeColouring(g *Graph) []int {
	used := make(map[[2]int]bool)
	colour := make([]int, len(g.Edges))
	for id, e := range g.Edges {
		c := 0
		for used[[2]int{e.U, c}] || used[[2]int{e.V, c}] {
			c++
		}
		colour[id] = c
		used[[2]int{e.U, c}] = true
		used[[2]int{e.V, c}] = true
	}
	return colour
}

// randomTestGraph draws a G(n, m) graph with a planted clique and, on
// some draws, a few parallel edges.
func randomTestGraph(r *rng.RNG) (*Graph, []int) {
	n := r.Intn(30)
	max := n * (n - 1) / 2
	m := 0
	if max > 0 {
		m = r.Intn(max + 1)
	}
	g := GNM(n, m, r)
	var planted []int
	if n > 0 {
		planted = PlantClique(g, 1+r.Intn(min(n, 6)), r)
	}
	if r.Intn(3) == 0 {
		for k := 0; k < 3 && len(g.Edges) > 0; k++ {
			e := g.Edges[r.Intn(len(g.Edges))]
			g.AddEdge(e.V, e.U, e.W)
		}
	}
	return g, planted
}

func TestCliqueValidatorsMatchOracleOnRandomInputs(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 400; trial++ {
		g, planted := randomTestGraph(r)
		maximal := greedyMaximalClique(g, planted)
		candidates := [][]int{nil, {}, planted, maximal}
		if len(maximal) > 1 {
			candidates = append(candidates, maximal[:len(maximal)-1], maximal[1:])
		}
		for k := 0; k < 6; k++ {
			size := r.Intn(7)
			set := make([]int, size)
			for i := range set {
				switch r.Intn(10) {
				case 0:
					set[i] = -1 - r.Intn(3)
				case 1:
					set[i] = g.N + r.Intn(3)
				case 2:
					if i > 0 {
						set[i] = set[r.Intn(i)]
						continue
					}
					fallthrough
				default:
					set[i] = r.Intn(g.N + 1)
				}
			}
			candidates = append(candidates, set)
			// A real clique plus one foreign entry.
			candidates = append(candidates, append(append([]int(nil), maximal...), set...))
		}
		for _, set := range candidates {
			checkCliqueVerdicts(t, "random", g, set)
		}
	}
}

func TestColourValidatorsMatchOracleOnRandomInputs(t *testing.T) {
	r := rng.New(2025)
	for trial := 0; trial < 400; trial++ {
		g, _ := randomTestGraph(r)
		delta := g.MaxDegree()
		proper := greedyEdgeColouring(g)
		checkColourVerdicts(t, "proper", g, proper)
		for k := 0; k < 6; k++ {
			colour := append([]int(nil), proper...)
			for flips := r.Intn(3); flips >= 0 && len(colour) > 0; flips-- {
				id := r.Intn(len(colour))
				switch r.Intn(5) {
				case 0:
					colour[id] = -1
				case 1:
					colour[id] = 1 << 40
				case 2:
					colour[id] = colour[r.Intn(len(colour))]
				default:
					colour[id] = r.Intn(delta + 2)
				}
			}
			checkColourVerdicts(t, "mutated", g, colour)
		}
		if len(proper) > 0 {
			checkColourVerdicts(t, "short", g, proper[:len(proper)-1])
		}
		checkColourVerdicts(t, "long", g, append(append([]int(nil), proper...), 0))
	}
}

func TestValidatorsMatchOracleOnHandBuiltInputs(t *testing.T) {
	tri := New(5) // triangle 0-1-2 plus the pendant edge 2-3; 4 isolated
	tri.AddEdge(0, 1, 1)
	tri.AddEdge(1, 2, 1)
	tri.AddEdge(0, 2, 1)
	tri.AddEdge(2, 3, 1)
	for _, set := range [][]int{
		{0, 1, 2}, {0, 1}, {2, 3}, {4}, {0, 0}, {0, 1, 1}, {0, 1, 2, 2},
		{0, 5}, {5}, {-1}, {0, -1}, {1 << 40}, {2, 3, 4}, {3, 2}, {}, nil,
	} {
		checkCliqueVerdicts(t, "triangle", tri, set)
	}
	empty := New(0)
	for _, set := range [][]int{nil, {0}, {-1}, {0, 1}} {
		checkCliqueVerdicts(t, "empty graph", empty, set)
	}

	// Edge ids: 0 = 0-1, 1 = 1-2, 2 = 0-2, 3 = 2-3.
	for _, colour := range [][]int{
		{0, 1, 2, 0},
		{0, 1, 2, 1},
		{-1, 0, 1, 2},
		{-1, -1, 0, 1},
		{0, 1, 1 << 40, 0},
		{math.MaxInt, math.MinInt, 0, 1},
		{math.MaxInt, math.MaxInt, 0, 1},
		{0, 1, 2},
		{0, 1, 2, 0, 3},
		{},
		nil,
	} {
		checkColourVerdicts(t, "triangle", tri, colour)
	}

	// A parallel edge needs its own colour; a self-loop (only reachable by
	// writing Edges directly) is one edge with one colour.
	multi := New(3)
	multi.AddEdge(0, 1, 1)
	multi.AddEdge(1, 0, 1)
	multi.Edges = append(multi.Edges, Edge{U: 2, V: 2, W: 1})
	multi.AddEdge(1, 2, 1)
	for _, colour := range [][]int{{0, 1, 0, 2}, {0, 0, 1, 2}, {0, 1, 2, 2}, {0, 1, 2, 0}} {
		checkColourVerdicts(t, "multigraph", multi, colour)
	}
	for _, set := range [][]int{{0, 1}, {1, 2}, {2}, {0, 1, 2}} {
		checkCliqueVerdicts(t, "multigraph", multi, set)
	}
}
