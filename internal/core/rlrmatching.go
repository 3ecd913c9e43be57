package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/rng"
	"repro/internal/seq"
)

// MatchingResult is the output of RLRMatching and BMatching.
type MatchingResult struct {
	// Edges are the indices of the selected edges.
	Edges []int
	// Weight is the total weight of the selection.
	Weight float64
	// Iterations is the number of outer sampling iterations executed.
	Iterations int
	// StackSize is the number of edges the local ratio stack accumulated.
	StackSize int
	// History records the alive-edge count after each iteration: the decay
	// trajectory bounded by Lemmas 5.3/5.4 (factor n^{µ/4} per iteration)
	// and Lemma C.1 (constant factor when η = Θ(n)).
	History []int64
	// Metrics are the measured MapReduce costs.
	Metrics mpc.Metrics
}

// MatchingOptions tunes RLRMatching beyond the shared Params.
type MatchingOptions struct {
	// Eta overrides the per-machine sample budget η (default n^{1+µ}).
	// Appendix C's linear-space variant corresponds to Eta = n (or µ = 0).
	Eta int
}

// RLRMatching is Algorithm 4: the randomized local ratio 2-approximation for
// maximum weight matching in MapReduce (Theorems 5.5 and 5.6).
//
// Edges are distributed across machines; in each iteration every alive edge
// samples itself into E'_u and E'_v independently with probability
// p = min(η/|E_i|, 1) and sampled edges are sent to the central machine,
// which runs the Paz–Schwartzman local ratio step for each vertex (push the
// heaviest sampled alive edge). The central machine then routes the changed
// potentials ϕ(v) back through the vertex owners to the edges, which update
// their alive bits. When no positive-weight edge remains, the central
// machine unwinds the stack into a matching.
//
// With η = n^{1+µ}, µ constant, the loop terminates in O(c/µ) iterations
// w.h.p.; with η = Θ(n) (µ = 0) it terminates in O(log n) iterations
// (Appendix C).
func RLRMatching(g *graph.Graph, p Params, opt MatchingOptions) (*MatchingResult, error) {
	n, m := g.N, g.M()
	if m == 0 {
		return &MatchingResult{}, nil
	}
	etaWords := opt.Eta
	if etaWords <= 0 {
		etaWords = eta(n, p.Mu, 8)
	}
	// Machine 0 is the dedicated central machine; machines 1..M-1 hold the
	// edge and vertex partitions.
	M := dataMachines(4*m, 4*etaWords)
	cluster := newCluster(M, etaWords, p, capSlack)
	defer cluster.Close()
	tree := mpc.NewTree(cluster, 0, treeDegree(n, p.Mu))
	r := rng.New(p.Seed)

	edgeOwner := func(id int) int { return 1 + id%(M-1) }
	vertexOwner := func(v int) int { return 1 + v%(M-1) }

	// Resident state: each edge owner stores (u, v, w, alive) per edge; each
	// vertex owner stores ϕ(v) plus the incident edge list used to forward
	// potentials.
	alive := make([]bool, m)
	for id := range alive {
		alive[id] = g.Edges[id].W > 0
	}
	g.Build()
	ownedEdges := partitionByOwner(m, M, edgeOwner)
	resident := make([]int, M)
	for id := range g.Edges {
		resident[edgeOwner(id)] += 4
	}
	for v := 0; v < n; v++ {
		resident[vertexOwner(v)] += 2 + g.Degree(v)
	}
	for machine := 0; machine < M; machine++ {
		cluster.SetResident(machine, resident[machine])
	}

	// Central machine state: the local ratio potentials and stack.
	lr := seq.NewMatchingLocalRatio(g)
	cluster.AddResident(0, 2*n) // ϕ plus stacked-bit bookkeeping

	res := &MatchingResult{}
	aliveCount := int64(0)
	for _, a := range alive {
		if a {
			aliveCount++
		}
	}
	// Per-iteration scratch, reused across iterations: the flat sampling
	// plan of (edge id, side mask) pairs, the sampled edges bucketed by
	// vertex, the vertices whose potential changed, and the alive counts.
	var plan roundPlan[int64]
	var perVertex buckets
	changed := newStamps(n)
	var changedList []int
	var pushed []int64
	counts := make([]int64, M)

	for iter := 0; aliveCount > 0; iter++ {
		if iter >= p.maxIter() {
			return nil, fmt.Errorf("core: RLRMatching exceeded %d iterations", p.maxIter())
		}
		res.Iterations++

		// Sampling round: edge owners sample each alive edge into E'_u and
		// E'_v independently and ship sampled edges to the central machine.
		// Message layout: [edgeID, sideMask] with sideMask bit0 = sampled
		// for U's list, bit1 = sampled for V's list.
		full := aliveCount < 4*int64(etaWords)
		prob := 1.0
		if !full {
			prob = math.Min(1, float64(etaWords)/float64(aliveCount))
		}
		// Draw the two per-edge side samples machine by machine before the
		// round; the closures replay each machine's plan concurrently.
		sampledSides := int64(0)
		plan.reset()
		for machine := 1; machine < M; machine++ {
			for _, id := range ownedEdges[machine] {
				if !alive[id] {
					continue
				}
				mask := int64(0)
				if full || r.Bernoulli(prob) {
					mask |= 1
				}
				if full || r.Bernoulli(prob) {
					mask |= 2
				}
				if mask != 0 {
					plan.add(int64(id))
					plan.add(mask)
					if mask&1 != 0 {
						sampledSides++
					}
					if mask&2 != 0 {
						sampledSides++
					}
				}
			}
			plan.next()
		}
		plan.arm(cluster)
		err := cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			pairs := plan.of(machine)
			for i := 0; i+1 < len(pairs); i += 2 {
				out.SendInts(0, pairs[i], pairs[i+1])
			}
		})
		if err != nil {
			return nil, err
		}

		// Line 10-11: if Σ|E'_v| > 8η the algorithm fails. This is a
		// w.h.p.-never event at the paper's constants.
		if !full && sampledSides > 8*int64(etaWords) {
			return nil, fmt.Errorf("core: RLRMatching sampling overflow (%d > 8η=%d)", sampledSides, 8*etaWords)
		}

		// Central machine: group sampled edges per vertex (in submission
		// order) and push the heaviest alive edge of each E'_v in
		// ascending vertex order (Lines 12-14).
		sampleIDs := plan.items
		perVertex.reset(n)
		for i := 0; i+1 < len(sampleIDs); i += 2 {
			e, mask := g.Edges[sampleIDs[i]], sampleIDs[i+1]
			if mask&1 != 0 {
				perVertex.count(e.U)
			}
			if mask&2 != 0 {
				perVertex.count(e.V)
			}
		}
		perVertex.fill()
		for i := 0; i+1 < len(sampleIDs); i += 2 {
			id, mask := int(sampleIDs[i]), sampleIDs[i+1]
			e := g.Edges[id]
			if mask&1 != 0 {
				perVertex.put(e.U, id)
			}
			if mask&2 != 0 {
				perVertex.put(e.V, id)
			}
		}
		changed.next()
		changedList = changedList[:0]
		pushed = pushed[:0]
		for v := 0; v < n; v++ {
			best, bestW := -1, 0.0
			for _, id := range perVertex.of(v) {
				if !lr.Alive(id) {
					continue
				}
				if w := lr.Reduced(id); w > bestW {
					best, bestW = id, w
				}
			}
			if best < 0 {
				continue
			}
			if _, ok := lr.Push(best); ok {
				e := g.Edges[best]
				for _, u := range [2]int{e.U, e.V} {
					if !changed.has(u) {
						changed.add(u)
						changedList = append(changedList, u)
					}
				}
				pushed = append(pushed, int64(best))
			}
		}
		cluster.SetResident(0, 2*n+2*lr.StackSize())

		// Update round A: central sends the changed ϕ values to the vertex
		// owners and the stacked edge ids to the edge owners (§5.3).
		slices.Sort(changedList)
		cluster.Arm(0) // rounds B and the delivery round run off their inboxes
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			if machine != 0 {
				return
			}
			for _, v := range changedList {
				out.Begin(vertexOwner(v))
				out.Int(int64(v))
				out.Float(lr.Phi(v))
				out.End()
			}
			for _, id := range pushed {
				out.SendInts(edgeOwner(int(id)), id)
			}
		})
		if err != nil {
			return nil, err
		}

		// Update round B: vertex owners forward ϕ(v) to the machines owning
		// v's alive incident edges; edge owners mark stacked edges dead and
		// recompute aliveness from the received potentials.
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for msg, ok := in.Next(); ok; msg, ok = in.Next() {
				if len(msg.Floats) == 1 {
					v := int(msg.Ints[0])
					phi := msg.Floats[0]
					for _, id := range g.IncidentEdges(v) {
						if alive[id] {
							out.Begin(edgeOwner(int(id)))
							out.Int(int64(id))
							out.Int(int64(v))
							out.Float(phi)
							out.End()
						}
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
		// Deliver round B's messages and apply them. Stacked edges die; an
		// edge receiving a potential recomputes its reduced weight (the
		// simulator reads lr, which holds exactly the values the messages
		// carry).
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for msg, ok := in.Next(); ok; msg, ok = in.Next() {
				if len(msg.Floats) == 1 && len(msg.Ints) == 2 {
					id := int(msg.Ints[0])
					if alive[id] && !lr.Alive(id) {
						alive[id] = false
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
		for _, id := range pushed {
			alive[id] = false
		}
		// Any edge whose potential made it non-positive is dead even if its
		// owner received no message this iteration (both endpoints
		// unchanged ⇒ weight unchanged, so this only affects edges with a
		// changed endpoint — exactly the ones messaged above).
		// Recompute the alive count with an aggregation over the tree.
		clear(counts)
		for id := 0; id < m; id++ {
			if alive[id] && !lr.Alive(id) {
				alive[id] = false
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
		res.History = append(res.History, aliveCount)
	}

	res.Edges = lr.Unwind()
	res.Weight = graph.MatchingWeight(g, res.Edges)
	res.StackSize = lr.StackSize()
	res.Metrics = cluster.Metrics()
	return res, nil
}
