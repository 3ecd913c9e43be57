package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/rng"
)

// FilteringWeightedMatching is the layered filtering 8-approximation for
// maximum weight matching of Lattanzi et al. (SPAA 2011) — the prior-work
// comparator row of Figure 1 that the paper's 2-approximation (Algorithm 4)
// improves on.
//
// Edges are bucketed into geometric weight classes [2^i·w_min, 2^{i+1}·w_min)
// and the classes are processed from heaviest to lightest; within a class an
// unweighted maximal matching is computed by filtering, restricted to edges
// whose endpoints are still free. Greedy-by-layer loses a factor 4 on top of
// maximality's factor 2, giving 8.
func FilteringWeightedMatching(g *graph.Graph, p Params) (*MatchingResult, error) {
	n, m := g.N, g.M()
	if m == 0 {
		return &MatchingResult{}, nil
	}
	wmin := math.Inf(1)
	for _, e := range g.Edges {
		if e.W <= 0 {
			return nil, fmt.Errorf("core: FilteringWeightedMatching requires positive weights")
		}
		wmin = math.Min(wmin, e.W)
	}
	classOf := func(w float64) int { return int(math.Floor(math.Log2(w / wmin))) }
	maxClass := 0
	for _, e := range g.Edges {
		if c := classOf(e.W); c > maxClass {
			maxClass = c
		}
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
	cluster.SetResident(0, n)

	matched := make([]bool, n)
	var matching []int
	res := &MatchingResult{}

	// filterClass runs the unweighted filtering loop over the edges of one
	// weight class, respecting the globally matched vertices.
	var plan roundPlan[int]
	var newly []int64
	counts := make([]int64, M)
	filterClass := func(class int) error {
		alive := make([]bool, m)
		aliveCount := int64(0)
		for id, e := range g.Edges {
			if classOf(e.W) == class && !matched[e.U] && !matched[e.V] {
				alive[id] = true
				aliveCount++
			}
		}
		for aliveCount > 0 {
			if res.Iterations >= p.maxIter() {
				return fmt.Errorf("core: FilteringWeightedMatching exceeded %d iterations", p.maxIter())
			}
			res.Iterations++
			final := aliveCount <= int64(etaWords)
			prob := 1.0
			if !final {
				prob = math.Min(1, float64(etaWords)/float64(aliveCount))
			}
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
				return err
			}
			sampled := plan.items // shipped: sorted in place
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
			if err := tree.Broadcast(cluster, newly, nil); err != nil {
				return err
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
				return err
			}
			aliveCount = total[0]
		}
		return nil
	}

	for class := maxClass; class >= 0; class-- {
		// Skipping empty classes costs nothing: check locally whether any
		// edge of this class is alive before spending rounds on it.
		empty := true
		for _, e := range g.Edges {
			if classOf(e.W) == class && !matched[e.U] && !matched[e.V] {
				empty = false
				break
			}
		}
		if empty {
			continue
		}
		if err := filterClass(class); err != nil {
			return nil, err
		}
	}

	res.Edges = matching
	res.Weight = graph.MatchingWeight(g, matching)
	res.Metrics = cluster.Metrics()
	return res, nil
}

// LayeredParallelMatching is the Crouch–Stubbs-style improvement over the
// sequential layering of FilteringWeightedMatching — the (4+ε) comparator
// row of Figure 1 ([14], applied to MapReduce by Grigorescu et al.). Edge
// weights are rounded into geometric classes [(1+eps)^i, (1+eps)^{i+1}); an
// unweighted maximal matching is computed in every class simultaneously
// (each class's filtering iterations share the cluster's rounds rather than
// running one class after another); finally the central machine merges the
// class matchings greedily from heaviest class to lightest.
func LayeredParallelMatching(g *graph.Graph, p Params, eps float64) (*MatchingResult, error) {
	n, m := g.N, g.M()
	if m == 0 {
		return &MatchingResult{}, nil
	}
	if eps <= 0 {
		eps = 0.5
	}
	wmin := math.Inf(1)
	for _, e := range g.Edges {
		if e.W <= 0 {
			return nil, fmt.Errorf("core: LayeredParallelMatching requires positive weights")
		}
		wmin = math.Min(wmin, e.W)
	}
	base := math.Log(1 + eps)
	classOf := func(w float64) int { return int(math.Floor(math.Log(w/wmin) / base)) }
	maxClass := 0
	for _, e := range g.Edges {
		if c := classOf(e.W); c > maxClass {
			maxClass = c
		}
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
	cluster.SetResident(0, n)

	// Per-class matched-vertex sets and matchings, filtered in lockstep:
	// every iteration samples each class's alive edges in one shared round.
	// matchedIn is one dense bitmap per class, laid end to end: vertex v is
	// matched in class c iff matchedIn[c*n+v].
	matchedIn := make([]bool, (maxClass+1)*n)
	classMatch := make([][]int, maxClass+1)
	var plan roundPlan[int]
	var newly []int64
	counts := make([]int64, M)
	alive := make([]bool, m)
	aliveCount := int64(0)
	for id := range alive {
		alive[id] = true
		aliveCount++
	}
	res := &MatchingResult{}
	for aliveCount > 0 {
		if res.Iterations >= p.maxIter() {
			return nil, fmt.Errorf("core: LayeredParallelMatching exceeded %d iterations", p.maxIter())
		}
		res.Iterations++
		final := aliveCount <= int64(etaWords)
		prob := 1.0
		if !final {
			prob = math.Min(1, float64(etaWords)/float64(aliveCount))
		}
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
		sampled := plan.items // shipped: sorted in place
		slices.Sort(sampled)
		newly = newly[:0]
		for _, id := range sampled {
			e := g.Edges[id]
			c := classOf(e.W)
			if !matchedIn[c*n+e.U] && !matchedIn[c*n+e.V] {
				matchedIn[c*n+e.U] = true
				matchedIn[c*n+e.V] = true
				classMatch[c] = append(classMatch[c], id)
				newly = append(newly, int64(c), int64(e.U), int64(e.V))
			}
		}
		if err := tree.Broadcast(cluster, newly, nil); err != nil {
			return nil, err
		}
		clear(counts)
		for id := 0; id < m; id++ {
			if alive[id] {
				e := g.Edges[id]
				c := classOf(e.W)
				if matchedIn[c*n+e.U] || matchedIn[c*n+e.V] || final {
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

	// Merge on the central machine: classes from heaviest to lightest,
	// edges greedily if both endpoints are globally free.
	used := make([]bool, n)
	var matching []int
	for c := maxClass; c >= 0; c-- {
		for _, id := range classMatch[c] {
			e := g.Edges[id]
			if !used[e.U] && !used[e.V] {
				used[e.U] = true
				used[e.V] = true
				matching = append(matching, id)
			}
		}
	}
	res.Edges = matching
	res.Weight = graph.MatchingWeight(g, matching)
	res.Metrics = cluster.Metrics()
	return res, nil
}
