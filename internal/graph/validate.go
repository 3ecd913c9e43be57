package graph

import "slices"

// This file contains solution validators: pure functions that check whether a
// proposed solution is feasible for its problem. Every MapReduce algorithm in
// internal/core is tested against these, so they are written for clarity and
// independence from the solvers (no shared helper logic that could hide a
// common bug).

// IsMatching reports whether the edge indices in sel form a matching in g:
// no two selected edges share an endpoint, and every index is valid and
// distinct.
func IsMatching(g *Graph, sel []int) bool {
	used := make([]bool, g.N)
	seen := make([]bool, len(g.Edges))
	for _, id := range sel {
		if id < 0 || id >= len(g.Edges) || seen[id] {
			return false
		}
		seen[id] = true
		e := g.Edges[id]
		if used[e.U] || used[e.V] {
			return false
		}
		used[e.U] = true
		used[e.V] = true
	}
	return true
}

// IsMaximalMatching reports whether sel is a matching that cannot be extended
// by any edge of g.
func IsMaximalMatching(g *Graph, sel []int) bool {
	if !IsMatching(g, sel) {
		return false
	}
	used := make([]bool, g.N)
	for _, id := range sel {
		used[g.Edges[id].U] = true
		used[g.Edges[id].V] = true
	}
	for _, e := range g.Edges {
		if !used[e.U] && !used[e.V] {
			return false
		}
	}
	return true
}

// MatchingWeight returns the total weight of the selected edges.
func MatchingWeight(g *Graph, sel []int) float64 {
	w := 0.0
	for _, id := range sel {
		w += g.Edges[id].W
	}
	return w
}

// IsBMatching reports whether sel is a b-matching: each vertex v is covered
// by at most b(v) selected edges.
func IsBMatching(g *Graph, sel []int, b func(v int) int) bool {
	load := make([]int, g.N)
	seen := make([]bool, len(g.Edges))
	for _, id := range sel {
		if id < 0 || id >= len(g.Edges) || seen[id] {
			return false
		}
		seen[id] = true
		e := g.Edges[id]
		load[e.U]++
		load[e.V]++
		if load[e.U] > b(e.U) || load[e.V] > b(e.V) {
			return false
		}
	}
	return true
}

// IsVertexCover reports whether the vertex set covers every edge of g.
func IsVertexCover(g *Graph, cover map[int]bool) bool {
	for _, e := range g.Edges {
		if !cover[e.U] && !cover[e.V] {
			return false
		}
	}
	return true
}

// CoverWeight returns the total weight of a vertex set under w.
func CoverWeight(cover map[int]bool, w []float64) float64 {
	s := 0.0
	for v, in := range cover {
		if in {
			s += w[v]
		}
	}
	return s
}

// IsIndependentSet reports whether no edge of g has both endpoints in set.
func IsIndependentSet(g *Graph, set map[int]bool) bool {
	for _, e := range g.Edges {
		if set[e.U] && set[e.V] {
			return false
		}
	}
	return true
}

// IsMaximalIndependentSet reports whether set is independent and every vertex
// outside it has a neighbour inside it. The map is converted to a bitmap
// once up front so the per-edge and per-neighbour tests are slice loads,
// not map lookups.
func IsMaximalIndependentSet(g *Graph, set map[int]bool) bool {
	in := make([]bool, g.N)
	for v, ok := range set {
		if ok && v >= 0 && v < g.N {
			in[v] = true
		}
	}
	for _, e := range g.Edges {
		if in[e.U] && in[e.V] {
			return false
		}
	}
	g.Build()
	for v := 0; v < g.N; v++ {
		if in[v] {
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(v) {
			if in[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
}

// IsClique reports whether every pair of vertices in set is joined in g.
// Sets of fewer than two entries are cliques whatever they hold; a larger
// set must list distinct vertices of g, each adjacent to all the others.
// The test counts, over each member's CSR neighbour slice, the distinct
// other members it reaches.
func IsClique(g *Graph, set []int) bool {
	if len(set) < 2 {
		return true
	}
	pos := make([]int32, g.N) // 1 + index of v in set; 0 if v is not a member
	for i, v := range set {
		if v < 0 || v >= g.N || pos[v] != 0 {
			return false
		}
		pos[v] = int32(i + 1)
	}
	// seenBy[j] == i+1 once member j has been counted for member i, so a
	// parallel edge is counted once.
	seenBy := make([]int32, len(set))
	for i, v := range set {
		reached := 0
		for _, u := range g.Neighbors(v) {
			if j := pos[u]; j != 0 && int(u) != v && seenBy[j-1] != int32(i+1) {
				seenBy[j-1] = int32(i + 1)
				reached++
			}
		}
		if reached != len(set)-1 {
			return false
		}
	}
	return true
}

// IsMaximalClique reports whether set is a clique and no vertex outside set
// is adjacent to all of set. It counts, for every vertex, how many members
// it is adjacent to; a non-member adjacent to all of them extends set.
func IsMaximalClique(g *Graph, set []int) bool {
	if !IsClique(g, set) {
		return false
	}
	if len(set) == 1 && (set[0] < 0 || set[0] >= g.N) {
		return true // no vertex of g is adjacent to a non-vertex
	}
	// common[v] is the number of members adjacent to v, or -1 for a
	// member; lastBy[v] == i+1 once v has been counted for member i.
	common := make([]int32, g.N)
	lastBy := make([]int32, g.N)
	for _, v := range set {
		common[v] = -1
	}
	for i, v := range set {
		for _, u := range g.Neighbors(v) {
			if common[u] >= 0 && lastBy[u] != int32(i+1) {
				lastBy[u] = int32(i + 1)
				common[u]++
			}
		}
	}
	for _, c := range common {
		if int(c) == len(set) {
			return false
		}
	}
	return true
}

// IsProperVertexColouring reports whether colour assigns every vertex a
// colour and no edge is monochromatic.
func IsProperVertexColouring(g *Graph, colour []int) bool {
	if len(colour) != g.N {
		return false
	}
	for _, e := range g.Edges {
		if colour[e.U] == colour[e.V] {
			return false
		}
	}
	return true
}

// IsProperEdgeColouring reports whether colour assigns every edge a colour
// and no two edges sharing a vertex have the same colour. Colours may be
// any ints. Each vertex's incident colours are gathered from its CSR
// slice into one reused buffer, sorted and checked for repeats.
func IsProperEdgeColouring(g *Graph, colour []int) bool {
	if len(colour) != len(g.Edges) {
		return false
	}
	var at []int
	for v := 0; v < g.N; v++ {
		at = at[:0]
		ids := g.IncidentEdges(v)
		for k, id := range ids {
			// A self-loop fills two adjacent slots of one slice; it is one
			// edge with one colour.
			if k > 0 && ids[k-1] == id {
				continue
			}
			at = append(at, colour[id])
		}
		slices.Sort(at)
		for k := 1; k < len(at); k++ {
			if at[k] == at[k-1] {
				return false
			}
		}
	}
	return true
}

// NumColours returns the number of distinct colours used. A palette
// spanning less than four times the number of entries is counted on a
// bitmap; a sparse one on a sorted copy.
func NumColours(colour []int) int {
	if len(colour) == 0 {
		return 0
	}
	lo, hi := slices.Min(colour), slices.Max(colour)
	distinct := 0
	if span := uint64(hi) - uint64(lo); span < 4*uint64(len(colour)) {
		used := make([]bool, span+1)
		for _, c := range colour {
			if k := uint64(c) - uint64(lo); !used[k] {
				used[k] = true
				distinct++
			}
		}
		return distinct
	}
	sorted := slices.Clone(colour)
	slices.Sort(sorted)
	for k := range sorted {
		if k == 0 || sorted[k] != sorted[k-1] {
			distinct++
		}
	}
	return distinct
}
