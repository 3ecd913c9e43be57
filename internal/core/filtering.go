package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/rng"
)

// FilteringResult is the output of the Lattanzi et al. filtering baselines.
type FilteringResult struct {
	// Edges are the selected matching edges.
	Edges []int
	// VertexCover is the 2-approximate unweighted vertex cover induced by
	// the maximal matching (both endpoints of every matched edge).
	VertexCover map[int]bool
	// Iterations is the number of filtering iterations.
	Iterations int
	// Metrics are the measured MapReduce costs.
	Metrics mpc.Metrics
}

// FilteringMatching is the filtering technique of Lattanzi, Moseley, Suri
// and Vassilvitskii (SPAA 2011) for unweighted maximal matching, the
// prior-work baseline in Figure 1 (2-approximation for matching; its matched
// vertices give a 2-approximation for unweighted vertex cover).
//
// Each iteration samples edges with probability η/|E|, computes a maximal
// matching of the sample on the central machine, and keeps only edges with
// both endpoints unmatched; when the residue fits on one machine it is
// finished there.
func FilteringMatching(g *graph.Graph, p Params) (*FilteringResult, error) {
	n, m := g.N, g.M()
	if m == 0 {
		return &FilteringResult{VertexCover: map[int]bool{}}, nil
	}
	etaWords := eta(n, p.Mu, 8)
	M := dataMachines(3*m, 3*etaWords)
	cluster := newCluster(M, etaWords, p, capSlack)
	defer cluster.Close()
	tree := mpc.NewTree(cluster, 0, treeDegree(n, p.Mu))
	r := rng.New(p.Seed)
	edgeOwner := func(id int) int { return 1 + id%(M-1) }

	ownedEdges := partitionByOwner(m, M, edgeOwner)
	resident := make([]int, M)
	for id := 0; id < m; id++ {
		resident[edgeOwner(id)] += 3
	}
	for machine := 1; machine < M; machine++ {
		cluster.SetResident(machine, resident[machine])
	}
	cluster.SetResident(0, n) // matched-vertex bitmap

	matched := make([]bool, n)
	alive := make([]bool, m)
	aliveCount := int64(m)
	for id := range alive {
		alive[id] = true
	}
	var matching []int
	iterations := 0

	// Per-iteration scratch, reused across iterations: the flat sampling
	// plan, the newly matched vertices and the alive counts.
	var plan roundPlan[int]
	var newly []int64
	counts := make([]int64, M)

	for aliveCount > 0 {
		if iterations >= p.maxIter() {
			return nil, fmt.Errorf("core: FilteringMatching exceeded %d iterations", p.maxIter())
		}
		iterations++
		final := aliveCount <= int64(etaWords)
		prob := 1.0
		if !final {
			prob = math.Min(1, float64(etaWords)/float64(aliveCount))
		}
		// Draw the sample machine by machine before the round; the closures
		// replay each machine's plan concurrently.
		plan.reset()
		for machine := 1; machine < M; machine++ {
			for _, id := range ownedEdges[machine] {
				if !alive[id] {
					continue
				}
				if final || r.Bernoulli(prob) {
					plan.add(id)
				}
			}
			plan.next()
		}
		plan.arm(cluster)
		err := cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for _, id := range plan.of(machine) {
				out.SendInts(0, int64(id))
			}
		})
		if err != nil {
			return nil, err
		}
		// The central machine adds a maximal matching over the sampled
		// edges in ascending id order, respecting already-matched
		// vertices. The round has shipped the plan, so the sample is
		// sorted in place.
		sampled := plan.items
		slices.Sort(sampled)
		newly = newly[:0]
		for _, id := range sampled {
			e := g.Edges[id]
			if !matched[e.U] && !matched[e.V] {
				matched[e.U] = true
				matched[e.V] = true
				matching = append(matching, id)
				newly = append(newly, int64(e.U), int64(e.V))
			}
		}

		// Broadcast the newly matched vertices down the tree; owners kill
		// incident edges.
		if err := tree.Broadcast(cluster, newly, nil); err != nil {
			return nil, err
		}
		clear(counts)
		for id := 0; id < m; id++ {
			if alive[id] {
				e := g.Edges[id]
				if matched[e.U] || matched[e.V] || final {
					alive[id] = false
				}
			}
			if alive[id] {
				counts[edgeOwner(id)]++
			}
		}
		total, err := tree.AllReduceSum(cluster, 1, func(machine int) []int64 {
			return counts[machine : machine+1]
		})
		if err != nil {
			return nil, err
		}
		aliveCount = total[0]
	}

	// matched is exactly the endpoint set of the maximal matching, so the
	// public cover map is one pre-sized conversion from the bitmap.
	return &FilteringResult{
		Edges:       matching,
		VertexCover: graph.VertexSet(matched),
		Iterations:  iterations,
		Metrics:     cluster.Metrics(),
	}, nil
}
