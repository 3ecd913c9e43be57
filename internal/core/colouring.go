package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/rng"
	"repro/internal/seq"
)

// ColouringResult is the output of VertexColouring and EdgeColouring.
type ColouringResult struct {
	// Colours assigns a colour to every vertex (VertexColouring) or edge
	// (EdgeColouring). Colours are globally distinct across groups: colour
	// = group * (maxGroupColours) + local colour.
	Colours []int
	// NumColours is the number of distinct colours used.
	NumColours int
	// Groups is κ, the number of random groups.
	Groups int
	// MaxGroupDegree is the largest maximum degree of any group subgraph.
	MaxGroupDegree int
	// Metrics are the measured MapReduce costs.
	Metrics mpc.Metrics
}

// colouringGroups returns κ = n^{(c−µ)/2} clamped to [1, n], with c
// estimated from the instance (m = n^{1+c}).
func colouringGroups(n, m int, mu float64) int {
	if n < 2 || m == 0 {
		return 1
	}
	c := math.Log(float64(m))/math.Log(float64(n)) - 1
	if c < mu {
		return 1
	}
	k := int(math.Round(math.Pow(float64(n), (c-mu)/2)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// VertexColouring is Algorithm 5: (1+o(1))∆ vertex colouring in O(1) rounds
// (Theorem 6.4). Vertices are randomly partitioned into κ = n^{(c−µ)/2}
// groups; each group's induced subgraph is routed to its own machine, which
// colours it greedily with ∆_i + 1 colours; the global colour of v is the
// pair (group, local colour). Lemma 6.1 bounds ∆_i ≤ (1+o(1))∆/κ and
// Lemma 6.2 bounds each group's edge count by 13·n^{1+µ} w.h.p., so the
// total colour count is (1+o(1))∆.
func VertexColouring(g *graph.Graph, p Params) (*ColouringResult, error) {
	n, m := g.N, g.M()
	if n == 0 {
		return &ColouringResult{Colours: []int{}}, nil
	}
	etaWords := eta(n, p.Mu, 8)
	kappa := colouringGroups(n, m, p.Mu)
	// Machine 0 coordinates; group i is coloured on machine 1+i; edges are
	// initially spread over all machines.
	M := 1 + kappa
	if dm := dataMachines(3*m, 4*etaWords); dm > M {
		M = dm
	}
	cluster := newCluster(M, etaWords, p, capSlack)
	defer cluster.Close()
	r := rng.New(p.Seed)
	edgeOwner := func(id int) int { return 1 + id%(M-1) }
	groupMachine := func(grp int) int { return 1 + grp%(M-1) }

	ownedEdges := partitionByOwner(m, M, edgeOwner)
	resident := make([]int, M)
	for id := 0; id < m; id++ {
		resident[edgeOwner(id)] += 3
	}
	for machine := 1; machine < M; machine++ {
		cluster.SetResident(machine, resident[machine])
	}

	// Group assignment is a shared hash (every machine can evaluate it), so
	// no communication is needed to learn a vertex's group.
	group := make([]int, n)
	for v := 0; v < n; v++ {
		group[v] = r.Intn(kappa)
	}

	// Route round: every monochromatic edge goes to its group's machine.
	// The per-group edge lists are assembled up front in machine order,
	// then edge order — the order they arrive in — because groups are
	// shared destinations that concurrent senders could not append to. The
	// counting pass arms the machines that will send (Arm deduplicates).
	var groupEdges buckets
	groupEdges.reset(kappa)
	for machine := 1; machine < M; machine++ {
		for _, id := range ownedEdges[machine] {
			e := g.Edges[id]
			if group[e.U] == group[e.V] {
				groupEdges.count(group[e.U])
				cluster.Arm(machine)
			}
		}
	}
	groupEdges.fill()
	for machine := 1; machine < M; machine++ {
		for _, id := range ownedEdges[machine] {
			e := g.Edges[id]
			if group[e.U] == group[e.V] {
				groupEdges.put(group[e.U], id)
			}
		}
	}
	err := cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for _, id := range ownedEdges[machine] {
			e := g.Edges[id]
			if group[e.U] == group[e.V] {
				out.SendInts(groupMachine(group[e.U]), int64(e.U), int64(e.V))
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// Failure check (Line 4): any group with more than 13·n^{1+µ} edges
	// fails the algorithm (a w.h.p.-never event).
	capEdges := int(math.Ceil(13 * math.Pow(float64(n), 1+p.Mu)))
	for i := 0; i < kappa; i++ {
		if size := len(groupEdges.of(i)); size > capEdges {
			return nil, fmt.Errorf("core: VertexColouring group %d has %d > 13n^{1+µ} = %d edges", i, size, capEdges)
		}
	}

	// Each group machine colours its induced subgraph greedily; one round
	// of local computation plus one output round. The groups are
	// independent (each writes only its own vertices' colours), so the
	// colouring runs under the cluster's executor.
	// Group i's vertices in ascending order; a vertex's position in its
	// group's run is its compacted id in the group subgraph.
	var members buckets
	members.reset(kappa)
	for v := 0; v < n; v++ {
		members.count(group[v])
	}
	members.fill()
	for v := 0; v < n; v++ {
		members.put(group[v], v)
	}
	local := make([]int, n)
	for i := 0; i < kappa; i++ {
		for k, v := range members.of(i) {
			local[v] = k
		}
	}
	colours := make([]int, n)
	localColour := make([]int, n)
	groupDeg := make([]int, kappa)
	groupMaxLocal := make([]int, kappa)
	cluster.Exec().Execute(kappa, func(i int) {
		verts := members.of(i)
		sub := induced(g, len(verts), groupEdges.of(i), local)
		col := seq.GreedyVertexColouring(sub, nil)
		groupDeg[i] = sub.MaxDegree()
		for k, v := range verts {
			localColour[v] = col[k]
			if col[k] > groupMaxLocal[i] {
				groupMaxLocal[i] = col[k]
			}
		}
	})
	maxGroupDeg, maxLocal := 0, 0
	for i := 0; i < kappa; i++ {
		if groupDeg[i] > maxGroupDeg {
			maxGroupDeg = groupDeg[i]
		}
		if groupMaxLocal[i] > maxLocal {
			maxLocal = groupMaxLocal[i]
		}
	}
	// Output round: group machines emit (v, group, local colour). A machine
	// hosting a group whose induced subgraph has no edges received no route
	// traffic, so every machine hosting any vertex's group is armed.
	for v := 0; v < n; v++ {
		cluster.Arm(groupMachine(group[v]))
	}
	err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for v := 0; v < n; v++ {
			if groupMachine(group[v]) == machine {
				out.SendInts(0, int64(v), int64(group[v]), int64(localColour[v]))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	stride := maxLocal + 1
	for v := 0; v < n; v++ {
		colours[v] = group[v]*stride + localColour[v]
	}

	return &ColouringResult{
		Colours:        colours,
		NumColours:     graph.NumColours(colours),
		Groups:         kappa,
		MaxGroupDegree: maxGroupDeg,
		Metrics:        cluster.Metrics(),
	}, nil
}

// EdgeColouring is the edge-colouring variant of Algorithm 5 (Remark 6.5,
// Theorem 6.6): edges are randomly partitioned into κ groups, each group is
// edge-coloured with ∆_i + 1 colours by the Misra–Gries algorithm, and the
// global colour of an edge is the pair (group, local colour).
func EdgeColouring(g *graph.Graph, p Params) (*ColouringResult, error) {
	n, m := g.N, g.M()
	if m == 0 {
		return &ColouringResult{Colours: []int{}}, nil
	}
	etaWords := eta(n, p.Mu, 8)
	kappa := colouringGroups(n, m, p.Mu)
	M := 1 + kappa
	if dm := dataMachines(3*m, 4*etaWords); dm > M {
		M = dm
	}
	cluster := newCluster(M, etaWords, p, capSlack)
	defer cluster.Close()
	r := rng.New(p.Seed)
	edgeOwner := func(id int) int { return 1 + id%(M-1) }
	groupMachine := func(grp int) int { return 1 + grp%(M-1) }

	ownedEdges := partitionByOwner(m, M, edgeOwner)
	resident := make([]int, M)
	for id := 0; id < m; id++ {
		resident[edgeOwner(id)] += 3
	}
	for machine := 1; machine < M; machine++ {
		cluster.SetResident(machine, resident[machine])
	}

	group := make([]int, m)
	for id := 0; id < m; id++ {
		group[id] = r.Intn(kappa)
	}

	// Route round: each edge goes to its group's machine, so every machine
	// owning an edge sends and is armed. The output round needs no arming:
	// a machine emits only for groups with edges, and those received route
	// traffic. Group edge lists are assembled up front in arrival (machine,
	// then edge) order.
	var groupIDs buckets
	groupIDs.reset(kappa)
	for machine := 1; machine < M; machine++ {
		if len(ownedEdges[machine]) > 0 {
			cluster.Arm(machine)
		}
		for _, id := range ownedEdges[machine] {
			groupIDs.count(group[id])
		}
	}
	groupIDs.fill()
	for machine := 1; machine < M; machine++ {
		for _, id := range ownedEdges[machine] {
			groupIDs.put(group[id], id)
		}
	}
	err := cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for _, id := range ownedEdges[machine] {
			e := g.Edges[id]
			out.SendInts(groupMachine(group[id]), int64(e.U), int64(e.V))
		}
	})
	if err != nil {
		return nil, err
	}
	capEdges := int(math.Ceil(13 * math.Pow(float64(n), 1+p.Mu)))
	for i := 0; i < kappa; i++ {
		if size := len(groupIDs.of(i)); size > capEdges {
			return nil, fmt.Errorf("core: EdgeColouring group %d has %d > %d edges", i, size, capEdges)
		}
	}

	// Per-group Misra–Gries colouring is independent across groups (each
	// writes only its own edges' colours), so it runs under the cluster's
	// executor.
	colours := make([]int, m)
	localColour := make([]int, m)
	groupDeg := make([]int, kappa)
	groupMaxLocal := make([]int, kappa)
	cluster.Exec().Execute(kappa, func(i int) {
		// Build the group subgraph on the same vertex ids.
		ids := groupIDs.of(i)
		sub := graph.New(n)
		sub.Edges = make([]graph.Edge, 0, len(ids))
		for _, id := range ids {
			e := g.Edges[id]
			sub.AddEdge(e.U, e.V, 1)
		}
		col := seq.MisraGries(sub)
		groupDeg[i] = sub.MaxDegree()
		for k, id := range ids {
			localColour[id] = col[k]
			if col[k] > groupMaxLocal[i] {
				groupMaxLocal[i] = col[k]
			}
		}
	})
	maxGroupDeg, maxLocal := 0, 0
	for i := 0; i < kappa; i++ {
		if groupDeg[i] > maxGroupDeg {
			maxGroupDeg = groupDeg[i]
		}
		if groupMaxLocal[i] > maxLocal {
			maxLocal = groupMaxLocal[i]
		}
	}
	// Output round.
	err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for id := 0; id < m; id++ {
			if groupMachine(group[id]) == machine {
				out.SendInts(0, int64(id), int64(group[id]), int64(localColour[id]))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	stride := maxLocal + 1
	for id := 0; id < m; id++ {
		colours[id] = group[id]*stride + localColour[id]
	}

	return &ColouringResult{
		Colours:        colours,
		NumColours:     graph.NumColours(colours),
		Groups:         kappa,
		MaxGroupDegree: maxGroupDeg,
		Metrics:        cluster.Metrics(),
	}, nil
}

// induced builds the subgraph on size vertices spanned by the edges ids of
// g, relabelling every endpoint v to the dense compacted id local[v].
func induced(g *graph.Graph, size int, ids []int, local []int) *graph.Graph {
	sub := graph.New(size)
	sub.Edges = make([]graph.Edge, 0, len(ids))
	for _, id := range ids {
		e := g.Edges[id]
		sub.AddEdge(local[e.U], local[e.V], e.W)
	}
	return sub
}
