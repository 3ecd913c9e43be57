package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/rng"
)

// MISResult is the output of the maximal independent set algorithms.
type MISResult struct {
	// Set is the maximal independent set.
	Set map[int]bool
	// Iterations is the number of hungry-greedy batches executed.
	Iterations int
	// Phases is the number of degree-threshold phases executed.
	Phases int
	// History records the alive-edge count measured before each iteration
	// of MISFast: the decay trajectory of Lemma A.2 (factor n^{µ/8} per
	// iteration). Unused by the other MIS variants.
	History []int64
	// Metrics are the measured MapReduce costs.
	Metrics mpc.Metrics
}

// misState is the shared distributed state of Algorithms 2 and 6: vertices
// (with adjacency lists) partitioned over data machines, per-vertex status
// and alive-degree, and the central machine's record of the independent set.
//
// The per-vertex arrays are owner-partitioned: during a round, machine k's
// RoundFunc invocation only ever writes entries of vertices it owns, so the
// rounds are race-free under a parallel executor. Random sampling decisions
// are drawn before the round starts (in machine order, then vertex order —
// the order the machines would draw in), and the round's closures read the
// resulting per-machine plans.
type misState struct {
	g       *graph.Graph
	cluster *mpc.Cluster
	r       *rng.RNG
	M       int

	owned [][]int // owned[machine]: vertices of machine, ascending

	inI       []bool // v ∈ I
	dominated []bool // v ∈ N+(I) \ I
	dI        []int  // alive degree: |N(v) \ N+(I)|, 0 if v ∈ N+(I)

	// Per-round scratch, reused across rounds so a sampling round
	// allocates O(M), not O(sample): the sampling plan, the arena its
	// candidates' neighbour lists are carved from, the central machine's
	// batch and its batch-local dominated set, and the per-machine counts
	// the aggregations read.
	plan   roundPlan[candidate]
	arena  []int64
	batch  centralBatch
	marked stamps
	groups [][]candidate
	counts []int64
}

func (s *misState) vertexOwner(v int) int { return 1 + v%(s.M-1) }

func (s *misState) aliveVertex(v int) bool { return !s.inI[v] && !s.dominated[v] }

func newMISState(g *graph.Graph, cluster *mpc.Cluster, r *rng.RNG) *misState {
	g.Build()
	s := &misState{
		g:         g,
		cluster:   cluster,
		r:         r,
		M:         cluster.M(),
		inI:       make([]bool, g.N),
		dominated: make([]bool, g.N),
		dI:        make([]int, g.N),
		marked:    newStamps(g.N),
	}
	s.owned = partitionByOwner(g.N, s.M, s.vertexOwner)
	for v := 0; v < g.N; v++ {
		s.dI[v] = g.Degree(v)
	}
	resident := make([]int, s.M)
	for v := 0; v < g.N; v++ {
		resident[s.vertexOwner(v)] += 3 + g.Degree(v)
	}
	for machine := 1; machine < s.M; machine++ {
		cluster.SetResident(machine, resident[machine])
	}
	cluster.SetResident(0, g.N) // central: I and N+(I) bitmaps
	return s
}

// aliveNeighbours returns v's neighbours outside N+(I), scanning the
// contiguous CSR neighbour slice (no edge-id indirection). The list is
// carved from the round's arena, so it stays valid until the next
// sampling round resets the arena.
func (s *misState) aliveNeighbours(v int) []int64 {
	lo := len(s.arena)
	for _, u := range s.g.Neighbors(v) {
		if !s.inI[u] && !s.dominated[u] {
			s.arena = append(s.arena, int64(u))
		}
	}
	return s.arena[lo:len(s.arena):len(s.arena)]
}

// reduceCounts sums one int64 per machine over the tree, reusing the
// per-machine count buffer fill writes into.
func (s *misState) reduceCounts(tree *mpc.Tree, fill func(counts []int64)) (int64, error) {
	if s.counts == nil {
		s.counts = make([]int64, s.M)
	}
	clear(s.counts)
	fill(s.counts)
	total, err := tree.AllReduceSum(s.cluster, 1, func(machine int) []int64 {
		return s.counts[machine : machine+1]
	})
	if err != nil {
		return 0, err
	}
	return total[0], nil
}

// centralBatch is one batch of central decisions: the vertices that joined
// I and the alive vertices they newly dominate.
type centralBatch struct {
	added        []int
	newDominated []int
}

// reset empties the batch, keeping its buffers.
func (b *centralBatch) reset() {
	b.added = b.added[:0]
	b.newDominated = b.newDominated[:0]
}

// disseminate ships the batch results back to the vertex owners (one routed
// round), then lets owners notify their dominated vertices' neighbours so
// every alive vertex can update dI (a second routed round plus a delivery
// round), mirroring the update step of Theorem 3.3's proof sketch.
func (s *misState) disseminate(batch *centralBatch) error {
	// Round 1: central tells each owner which of its vertices entered I or
	// became dominated. Only the central machine acts on an empty inbox;
	// rounds 2 and 3 are driven entirely by delivered records.
	s.cluster.Arm(0)
	err := s.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		if machine != 0 {
			return
		}
		for _, v := range batch.added {
			out.SendInts(s.vertexOwner(v), int64(v), 1)
		}
		for _, v := range batch.newDominated {
			out.SendInts(s.vertexOwner(v), int64(v), 0)
		}
	})
	if err != nil {
		return err
	}
	// Round 2: owners record the status change and broadcast "v left the
	// alive set" to the owners of v's neighbours.
	err = s.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for msg, ok := in.Next(); ok; msg, ok = in.Next() {
			v := int(msg.Ints[0])
			if msg.Ints[1] == 1 {
				s.inI[v] = true
			} else {
				s.dominated[v] = true
			}
			s.dI[v] = 0
			for _, u := range s.g.Neighbors(v) {
				out.SendInts(s.vertexOwner(int(u)), int64(u))
			}
		}
	})
	if err != nil {
		return err
	}
	// Round 3: owners decrement dI of their still-alive vertices once per
	// removed neighbour.
	return s.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for msg, ok := in.Next(); ok; msg, ok = in.Next() {
			u := int(msg.Ints[0])
			if s.aliveVertex(u) && s.dI[u] > 0 {
				s.dI[u]--
			}
		}
	})
}

type candidate struct {
	v         int
	aliveNbrs []int64
}

// sampleToCentral performs the sampling round: every vertex for which
// include(v) is true joins the sample with probability prob and ships
// (v, alive neighbour list) to the central machine. The sampling decisions
// are drawn up front in machine order, then vertex order — the order the
// machines would draw in — into the per-machine plan, which the round's
// closures replay concurrently. The returned candidates are in submission
// order (machine order, then vertex order), which the central machine
// chops into groups; they alias the round scratch and stay valid until the
// next sampling round.
func (s *misState) sampleToCentral(include func(v int) bool, prob func(v int) float64) ([]candidate, error) {
	s.plan.reset()
	s.arena = s.arena[:0]
	for machine := 1; machine < s.M; machine++ {
		for _, v := range s.owned[machine] {
			if !include(v) || !s.r.Bernoulli(prob(v)) {
				continue
			}
			s.plan.add(candidate{v: v, aliveNbrs: s.aliveNeighbours(v)})
		}
		s.plan.next()
	}
	s.plan.arm(s.cluster)
	err := s.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for _, cand := range s.plan.of(machine) {
			out.Begin(0)
			out.Int(int64(cand.v))
			out.Ints(cand.aliveNbrs...)
			out.End()
		}
	})
	if err != nil {
		return nil, err
	}
	return s.plan.items, nil
}

// always is the sampling probability of a full gather.
func always(int) float64 { return 1 }

// chopGroups shuffles a sample and splits it into groups of the given
// size, reusing the state's group buffer.
func (s *misState) chopGroups(sample []candidate, groupSize int) [][]candidate {
	s.r.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	if groupSize < 1 {
		groupSize = 1
	}
	s.groups = s.groups[:0]
	for i := 0; i < len(sample); i += groupSize {
		s.groups = append(s.groups, sample[i:min(i+groupSize, len(sample))])
	}
	return s.groups
}

// singletons returns one group per candidate, in ascending vertex order.
func (s *misState) singletons(sample []candidate) [][]candidate {
	slices.SortFunc(sample, func(a, b candidate) int { return a.v - b.v })
	s.groups = s.groups[:0]
	for k := range sample {
		s.groups = append(s.groups, sample[k:k+1])
	}
	return s.groups
}

// finishCentrally gathers the remaining alive vertices with their alive
// adjacency onto the central machine (one round) and completes the
// independent set greedily.
func (s *misState) finishCentrally() error {
	leftovers, err := s.sampleToCentral(s.aliveVertex, always)
	if err != nil {
		return err
	}
	slices.SortFunc(leftovers, func(a, b candidate) int { return a.v - b.v })
	s.batch.reset()
	s.marked.next() // blocked: I members and vertices they dominate
	for _, cand := range leftovers {
		if s.marked.has(cand.v) {
			continue
		}
		s.batch.added = append(s.batch.added, cand.v)
		s.marked.add(cand.v)
		for _, u := range cand.aliveNbrs {
			if !s.marked.has(int(u)) {
				s.batch.newDominated = append(s.batch.newDominated, int(u))
				s.marked.add(int(u))
			}
		}
	}
	return s.disseminate(&s.batch)
}

// aliveEdgeCount aggregates Σ_v alive dI(v) / 2 = |E_k| over the tree.
func (s *misState) aliveEdgeCount(tree *mpc.Tree) (int64, error) {
	total, err := s.reduceCounts(tree, func(counts []int64) {
		for v := 0; v < s.g.N; v++ {
			if s.aliveVertex(v) {
				counts[s.vertexOwner(v)] += int64(s.dI[v])
			}
		}
	})
	return total / 2, err
}

// result assembles the final MISResult. The membership bitmap s.inI is the
// internal representation; the public map shape is a single pre-sized
// conversion (no per-insert rehash growth).
func (s *misState) result(iterations, phases int) *MISResult {
	return &MISResult{
		Set:        graph.VertexSet(s.inI),
		Iterations: iterations,
		Phases:     phases,
		Metrics:    s.cluster.Metrics(),
	}
}

// MIS is Algorithm 2: the warm-up hungry-greedy maximal independent set in
// O(1/µ²) rounds (Theorem 3.3). Phases i = 1..1/α (α = µ/2) reduce the
// maximum alive degree from n^{1-(i-1)α} to n^{1-iα}; within a phase, heavy
// vertices (alive degree ≥ n^{1-iα}) are sampled in groups of n^{µ/2} and
// the central machine adds one qualifying vertex per group.
func MIS(g *graph.Graph, p Params) (*MISResult, error) {
	n := g.N
	if n == 0 {
		return &MISResult{Set: map[int]bool{}}, nil
	}
	etaWords := eta(n, p.Mu, 8)
	M := dataMachines(3*n+2*g.M(), 4*etaWords)
	cluster := newCluster(M, etaWords, p, capSlack)
	defer cluster.Close()
	tree := mpc.NewTree(cluster, 0, treeDegree(n, p.Mu))
	r := rng.New(p.Seed)
	s := newMISState(g, cluster, r)

	alpha := p.Mu / 2
	if alpha <= 0 {
		alpha = 0.05
	}
	phases := int(math.Ceil(1 / alpha))
	nf := float64(n)
	groupSize := int(math.Ceil(math.Pow(nf, p.Mu/2)))
	iterations := 0

	for i := 1; i <= phases; i++ {
		thresholdF := math.Pow(nf, 1-float64(i)*alpha)
		threshold := int(math.Ceil(thresholdF))
		if threshold < 1 {
			threshold = 1
		}
		heavyMin := math.Pow(nf, float64(i)*alpha) // while |V_H| >= n^{iα}
		for {
			if iterations >= p.maxIter() {
				return nil, fmt.Errorf("core: MIS exceeded %d iterations", p.maxIter())
			}
			// Count heavy vertices (aggregated over the tree).
			heavySet := func(v int) bool { return s.aliveVertex(v) && s.dI[v] >= threshold }
			heavy, err := s.reduceCounts(tree, func(counts []int64) {
				for v := 0; v < n; v++ {
					if heavySet(v) {
						counts[s.vertexOwner(v)]++
					}
				}
			})
			if err != nil {
				return nil, err
			}
			if heavy == 0 {
				break
			}
			s.batch.reset()
			s.marked.next()
			if float64(heavy) < heavyMin {
				// Line 12: fewer than n^{iα} heavy vertices remain; gather
				// them and finish the phase centrally with a greedy MIS
				// restricted to V_H.
				sample, err := s.sampleToCentral(heavySet, always)
				if err != nil {
					return nil, err
				}
				s.processGroups(s.singletons(sample), 0)
				if err := s.disseminate(&s.batch); err != nil {
					return nil, err
				}
				iterations++
				break
			}
			// Draw ~n^{iα} groups of n^{µ/2} heavy vertices via
			// self-sampling (each heavy vertex joins with probability
			// groups*groupSize/|V_H|).
			target := heavyMin * float64(groupSize)
			prob := math.Min(1, target/float64(heavy))
			sample, err := s.sampleToCentral(heavySet, func(int) float64 { return prob })
			if err != nil {
				return nil, err
			}
			s.processGroups(s.chopGroups(sample, groupSize), threshold)
			if err := s.disseminate(&s.batch); err != nil {
				return nil, err
			}
			iterations++
		}
	}
	// All alive vertices now have dI < n^{1-phases*α} ≤ 1, i.e. dI = 0:
	// gather and add them all.
	if err := s.finishCentrally(); err != nil {
		return nil, err
	}
	return s.result(iterations, phases), nil
}

// MISFast is Algorithm 6: the improved hungry-greedy maximal independent
// set in O(c/µ) rounds (Theorem A.3). Each iteration buckets alive vertices
// into degree classes V_{k,i} = {v : n^{1-iα} ≤ d_I(v) < n^{1-(i-1)α}},
// samples n^{(i+1)α} groups of n^{µ/2} vertices from each class, and the
// central machine adds one vertex with d_I ≥ n^{1-(i+1)α} per group; the
// alive edge count drops by a factor n^{µ/8} per iteration w.h.p.
// (Lemma A.2). When fewer than n^{1+µ} edges remain the residual graph is
// gathered and finished centrally.
func MISFast(g *graph.Graph, p Params) (*MISResult, error) {
	n := g.N
	if n == 0 {
		return &MISResult{Set: map[int]bool{}}, nil
	}
	etaWords := eta(n, p.Mu, 8)
	M := dataMachines(3*n+2*g.M(), 4*etaWords)
	cluster := newCluster(M, etaWords, p, capSlack)
	defer cluster.Close()
	tree := mpc.NewTree(cluster, 0, treeDegree(n, p.Mu))
	r := rng.New(p.Seed)
	s := newMISState(g, cluster, r)

	alpha := p.Mu / 8
	if alpha <= 0 {
		alpha = 0.0125
	}
	classes := int(math.Ceil(1 / alpha))
	nf := float64(n)
	groupSize := int(math.Ceil(math.Pow(nf, p.Mu/2)))
	iterations := 0
	var history []int64
	// Per-iteration scratch: per-machine class counts (one slab, width
	// classes+1 per machine) and the sample bucketed by class.
	width := classes + 1
	classSlab := make([]int64, M*width)
	var byClass buckets
	var classSample []candidate

	for {
		if iterations >= p.maxIter() {
			return nil, fmt.Errorf("core: MISFast exceeded %d iterations", p.maxIter())
		}
		edges, err := s.aliveEdgeCount(tree)
		if err != nil {
			return nil, err
		}
		history = append(history, edges)
		if float64(edges) < math.Pow(nf, 1+p.Mu) {
			break
		}
		iterations++
		// One sampling round covers all degree classes: each alive vertex
		// knows its class from d_I and self-samples with the class's rate.
		classOf := func(v int) int {
			if !s.aliveVertex(v) || s.dI[v] == 0 {
				return -1
			}
			d := float64(s.dI[v])
			// class i: n^{1-iα} <= d < n^{1-(i-1)α}
			i := int(math.Ceil((1 - math.Log(d)/math.Log(nf)) / alpha))
			if i < 1 {
				i = 1
			}
			if i > classes {
				i = classes
			}
			return i
		}
		clear(classSlab)
		for v := 0; v < n; v++ {
			if i := classOf(v); i >= 1 {
				classSlab[s.vertexOwner(v)*width+i]++
			}
		}
		classCounts, err := tree.AllReduceSum(cluster, width, func(machine int) []int64 {
			return classSlab[machine*width : (machine+1)*width]
		})
		if err != nil {
			return nil, err
		}

		sampleProb := func(v int) float64 {
			i := classOf(v)
			if i < 1 || classCounts[i] == 0 {
				return 0
			}
			target := math.Pow(nf, float64(i+1)*alpha) * float64(groupSize)
			return math.Min(1, target/float64(classCounts[i]))
		}
		// Draw the sampling decisions machine by machine (each machine's
		// vertices in ascending order), then replay the per-machine plans
		// inside the round.
		sample, err := s.sampleToCentral(func(v int) bool { return classOf(v) >= 1 }, sampleProb)
		if err != nil {
			return nil, err
		}
		// Central machine: bucket the sample by class (stable, so each
		// class keeps submission order), then process classes in
		// increasing i; threshold for class i is n^{1-(i+1)α}.
		byClass.reset(classes + 1)
		for _, cand := range sample {
			byClass.count(classOf(cand.v))
		}
		byClass.fill()
		for k, cand := range sample {
			byClass.put(classOf(cand.v), k)
		}
		s.batch.reset()
		s.marked.next()
		for i := 1; i <= classes; i++ {
			if len(byClass.of(i)) == 0 {
				continue
			}
			threshold := int(math.Ceil(math.Pow(nf, 1-float64(i+1)*alpha)))
			if threshold < 1 {
				threshold = 1
			}
			classSample = classSample[:0]
			for _, k := range byClass.of(i) {
				classSample = append(classSample, sample[k])
			}
			s.processGroups(s.chopGroups(classSample, groupSize), threshold)
		}
		if err := s.disseminate(&s.batch); err != nil {
			return nil, err
		}
	}
	if err := s.finishCentrally(); err != nil {
		return nil, err
	}
	res := s.result(iterations, 0)
	res.History = history
	return res, nil
}

// processGroups runs the hungry-greedy inner loop on the central machine,
// appending its decisions to s.batch: candidates arrive in groups; from
// each group the first vertex whose current alive degree (w.r.t. the
// central machine's view of N+(I)) is at least threshold joins I.
// Candidate lists were computed against the alive set at sampling time;
// the central machine re-filters them against its batch-local dominated
// set s.marked, exactly as the paper's central machine can (it holds the
// sampled neighbour lists). The caller starts the batch and the set; MISFast
// shares them across the class batches of one iteration.
func (s *misState) processGroups(groups [][]candidate, threshold int) {
	isAlive := func(v int) bool {
		return s.aliveVertex(v) && !s.marked.has(v)
	}
	for _, group := range groups {
		for _, cand := range group {
			if !isAlive(cand.v) {
				continue
			}
			deg := 0
			for _, u := range cand.aliveNbrs {
				if isAlive(int(u)) {
					deg++
				}
			}
			if deg < threshold {
				continue
			}
			s.batch.added = append(s.batch.added, cand.v)
			s.marked.add(cand.v)
			for _, u := range cand.aliveNbrs {
				if isAlive(int(u)) {
					s.batch.newDominated = append(s.batch.newDominated, int(u))
					s.marked.add(int(u))
				}
			}
			break
		}
	}
}
