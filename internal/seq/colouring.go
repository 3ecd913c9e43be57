package seq

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// GreedyVertexColouring colours vertices in the given order (or 0..n-1 when
// order is nil) with the smallest colour unused among coloured neighbours.
// It uses at most ∆+1 colours; colours are 0-based. This is the "standard
// (∆_i + 1)-vertex colouring algorithm" each central machine runs in
// Algorithm 5.
func GreedyVertexColouring(g *graph.Graph, order []int) []int {
	if order == nil {
		order = make([]int, g.N)
		for v := range order {
			order[v] = v
		}
	}
	colour := make([]int, g.N)
	for i := range colour {
		colour[i] = -1
	}
	// usedAt[c] == step marks colour c as used by the current vertex's
	// neighbours; the stamp replaces a per-vertex map and the greedy rule
	// needs at most ∆+1 ≤ n palette slots.
	usedAt := make([]int, g.N+1)
	for i := range usedAt {
		usedAt[i] = -1
	}
	for step, v := range order {
		for _, u := range g.Neighbors(v) {
			if cu := colour[u]; cu >= 0 {
				usedAt[cu] = step
			}
		}
		c := 0
		for usedAt[c] == step {
			c++
		}
		colour[v] = c
	}
	return colour
}

// MisraGries edge-colours g with at most ∆+1 colours (Vizing's bound),
// following the constructive algorithm of Misra and Gries (1992), which is
// the subroutine Remark 6.5 uses to colour each edge group. Colours are
// 0-based in the returned slice (internally 1..∆+1). It runs in O(nm) time.
func MisraGries(g *graph.Graph) []int {
	g.Build()
	maxC := g.MaxDegree() + 1
	if g.M() == 0 {
		return []int{}
	}
	colour := make([]int, g.M()) // 0 = uncoloured; valid colours 1..maxC
	// The (vertex, colour) index stores edge id + 1 for the edge coloured c
	// at v, 0 when the colour is free. On near-regular graphs it is a flat
	// slab (at[v*stride+c]) — direct indexing, no hashing. A flat slab is
	// Θ(n·∆) though, which a skewed degree sequence (one hub) can blow up
	// to Θ(n²), so when the slab would exceed a constant factor of the
	// graph's own size the index falls back to lazy per-vertex maps. Both
	// layouts answer identical queries, so the colouring is the same.
	stride := maxC + 1
	var flat []int32
	var sparse []map[int]int32
	if g.N*stride <= 8*(g.N+2*g.M())+1024 {
		flat = make([]int32, g.N*stride)
	} else {
		sparse = make([]map[int]int32, g.N)
	}
	atGet := func(v, c int) int32 {
		if flat != nil {
			return flat[v*stride+c]
		}
		return sparse[v][c] // nil map reads as 0
	}
	atPut := func(v, c int, id int32) {
		if flat != nil {
			flat[v*stride+c] = id
			return
		}
		if id == 0 {
			delete(sparse[v], c)
			return
		}
		if sparse[v] == nil {
			sparse[v] = make(map[int]int32)
		}
		sparse[v][c] = id
	}

	isFree := func(v, c int) bool { return atGet(v, c) == 0 }
	edgeAt := func(v, c int) (int, bool) {
		id := atGet(v, c)
		return int(id) - 1, id != 0
	}
	freeColour := func(v int) int {
		for c := 1; c <= maxC; c++ {
			if atGet(v, c) == 0 {
				return c
			}
		}
		panic("seq: no free colour; degree exceeds maxC-1")
	}
	setColour := func(id, c int) {
		e := g.Edges[id]
		if old := colour[id]; old != 0 {
			atPut(e.U, old, 0)
			atPut(e.V, old, 0)
		}
		colour[id] = c
		if c != 0 {
			atPut(e.U, c, int32(id)+1)
			atPut(e.V, c, int32(id)+1)
		}
	}

	// Scratch reused by every step of the main loop, so colouring an edge
	// allocates nothing: the fan, its membership stamps (fanAt[w] == epoch
	// marks w as in the current fan), the inverted path with its swapped
	// colours, and the rotated fan prefix with its shifted colours.
	// A fan has at most deg(u)+1 < maxC+1 vertices, which bounds the
	// rotation buffers too; only the path buffers grow.
	var (
		fan, rotIDs, newCol = make([]int, 0, maxC+1), make([]int, 0, maxC+1), make([]int, 0, maxC+1)
		path, swapped       []int
		fanAt               = make([]int32, g.N)
		epoch               int32
	)

	// makeFan builds a maximal fan of u starting at v: a sequence of distinct
	// neighbours F[0]=v, F[1], ... such that edge (u,F[i+1]) is coloured with
	// a colour free on F[i]. The fan is valid until the next call.
	makeFan := func(u, v int) []int {
		if epoch == math.MaxInt32 {
			clear(fanAt)
			epoch = 0
		}
		epoch++
		fan = append(fan[:0], v)
		fanAt[v] = epoch
		ids := g.IncidentEdges(u)
		nbrs := g.Neighbors(u)
		for {
			last := fan[len(fan)-1]
			extended := false
			for i, id := range ids {
				w := int(nbrs[i])
				if fanAt[w] == epoch || colour[id] == 0 {
					continue
				}
				if isFree(last, colour[id]) {
					fan = append(fan, w)
					fanAt[w] = epoch
					extended = true
					break
				}
			}
			if !extended {
				return fan
			}
		}
	}

	// invertPath walks the cd-path from u (u has d used, c free) and swaps
	// the two colours along it.
	invertPath := func(u, c, d int) {
		path = path[:0]
		cur, col := u, d
		for {
			id, ok := edgeAt(cur, col)
			if !ok {
				break
			}
			path = append(path, id)
			cur = g.Edges[id].Other(cur)
			if col == d {
				col = c
			} else {
				col = d
			}
		}
		// Two phases: uncolour the whole path first, then apply the swapped
		// colours. Doing it in one pass would transiently register two edges
		// under the same (vertex, colour) key and corrupt the index.
		swapped = swapped[:0]
		for _, id := range path {
			if colour[id] == c {
				swapped = append(swapped, d)
			} else {
				swapped = append(swapped, c)
			}
			setColour(id, 0)
		}
		for i, id := range path {
			setColour(id, swapped[i])
		}
	}

	// rotateFan shifts colours along the fan prefix F[0..w] and colours the
	// last edge d.
	rotateFan := func(u int, fan []int, w, d int) {
		nbrs := g.Neighbors(u)
		edgeTo := func(x int) int {
			for i, nb := range nbrs {
				if int(nb) == x {
					// Prefer the edge currently carrying the fan colour; for
					// simple graphs any incident edge to x is unique.
					return int(g.IncidentEdges(u)[i])
				}
			}
			panic("seq: fan vertex not adjacent")
		}
		// Collect the shift first, uncolour, then assign: assigning in place
		// would transiently give two edges at u the same colour and corrupt
		// the (vertex, colour) index.
		rotIDs = rotIDs[:0]
		for i := 0; i <= w; i++ {
			rotIDs = append(rotIDs, edgeTo(fan[i]))
		}
		newCol = newCol[:0]
		for i := 0; i < w; i++ {
			newCol = append(newCol, colour[rotIDs[i+1]])
		}
		newCol = append(newCol, d)
		for _, id := range rotIDs {
			setColour(id, 0)
		}
		for i, id := range rotIDs {
			if newCol[i] != 0 {
				setColour(id, newCol[i])
			}
		}
	}

	for id := range g.Edges {
		if colour[id] != 0 {
			continue
		}
		u, v := g.Edges[id].U, g.Edges[id].V
		for attempt := 0; ; attempt++ {
			if attempt > 2*g.N+10 {
				panic(fmt.Sprintf("seq: MisraGries failed to colour edge %d", id))
			}
			fan := makeFan(u, v)
			c := freeColour(u)
			d := freeColour(fan[len(fan)-1])
			if c != d && !isFree(u, d) {
				invertPath(u, c, d)
			}
			// After the inversion d is free on u. Find a prefix F[0..w] that
			// is still a fan (colours may have changed) with d free on F[w].
			w := -1
			for i := range fan {
				if i > 0 {
					// Prefix validity: colour of (u, fan[i]) must be free on
					// fan[i-1].
					ci := 0
					uIDs := g.IncidentEdges(u)
					for k, nb := range g.Neighbors(u) {
						if int(nb) == fan[i] {
							ci = colour[uIDs[k]]
							break
						}
					}
					if ci == 0 || !isFree(fan[i-1], ci) {
						break
					}
				}
				if isFree(fan[i], d) {
					w = i
					break
				}
			}
			if w < 0 {
				// The inversion disturbed the fan; rebuild and retry (the
				// Misra–Gries invariants guarantee progress).
				continue
			}
			rotateFan(u, fan, w, d)
			break
		}
	}

	out := make([]int, g.M())
	for id, c := range colour {
		if c == 0 {
			panic("seq: MisraGries left an edge uncoloured")
		}
		out[id] = c - 1
	}
	return out
}
