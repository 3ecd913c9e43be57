package core

import (
	"fmt"
	"math"

	"repro/internal/mpc"
	"repro/internal/rng"
	"repro/internal/setcover"
)

// HGCoverOptions tunes HGSetCover.
type HGCoverOptions struct {
	// Eps is the ε of the ε-greedy rule: selected sets have cost ratio at
	// least 1/(1+ε) of the maximum, giving a (1+ε)·H_∆ approximation.
	// Defaults to 0.2.
	Eps float64
	// Eta overrides the per-machine space target (default m^{1+µ} where m
	// is the ground set size — this is the paper's m ≪ n regime).
	Eta int
	// Preprocess enables the weight clamping of Remark 4.7: with
	// γ = max_j min_{S∋j} w(S) (a lower bound on OPT), every set of weight
	// at most γε/n is added to the cover upfront (total extra cost ≤ ε·OPT)
	// and every set of weight above m·γ is discarded (OPT ≤ m·γ). The
	// surviving weight spread is at most mn/ε, which bounds the number of
	// L-levels independent of the input weights.
	Preprocess bool
}

// HGSetCover is Algorithm 3: the hungry-greedy (1+ε)·H_∆ approximation for
// minimum weight set cover (Theorems 4.5 and 4.6).
//
// The algorithm maintains a cost-ratio level L (initially max |S_ℓ|/w_ℓ) and
// repeatedly exhausts the "bucket" of sets with |S_ℓ \ C|/w_ℓ ≥ L/(1+ε).
// Within an iteration the bucket-eligible sets are bucketed by uncovered
// size into 1/α classes (α = µ/8); from class i the algorithm samples
// ~2·m^{(i+1)α} groups of ~m^{µ/2} sets, and the central machine adds, per
// group, the first set that still has at least m^{1-(i+1)α}/2 uncovered
// elements. Lemma 4.3 shows the potential Φ = Σ_{eligible} |S_ℓ \ C| drops
// by a factor m^{µ/8} per iteration, so each bucket empties in
// O(log Φ / (µ log m)) iterations.
//
// When the bucket empties, L drops. The paper lowers L by exactly (1+ε);
// this implementation jumps L directly to the current maximum ratio (which
// the bucket-emptiness check computes anyway). That skips only empty
// buckets — in which the paper's algorithm would select nothing — so the
// solution is unchanged and the round count is only reduced.
func HGSetCover(inst *setcover.Instance, p Params, opt HGCoverOptions) (*CoverResult, error) {
	n := inst.NumSets()
	m := inst.NumElements
	if m == 0 {
		return &CoverResult{}, nil
	}
	eps := opt.Eps
	if eps <= 0 {
		eps = 0.2
	}
	etaWords := opt.Eta
	if etaWords <= 0 {
		etaWords = eta(m, p.Mu, 8)
	}
	inputWords := inst.TotalSize() + 2*n
	M := dataMachines(inputWords, 4*etaWords)
	cluster := newCluster(M, etaWords, p, capSlack)
	defer cluster.Close()
	tree := mpc.NewTree(cluster, 0, treeDegree(m, p.Mu))
	r := rng.New(p.Seed)
	setOwner := func(i int) int { return 1 + i%(M-1) }

	ownedSets := partitionByOwner(n, M, setOwner)

	// Residents: set owners hold (elements, weight, uncovered count);
	// central holds the covered bitmap and the solution.
	resident := make([]int, M)
	for i, s := range inst.Sets {
		resident[setOwner(i)] += len(s) + 3
	}
	for machine := 1; machine < M; machine++ {
		cluster.SetResident(machine, resident[machine])
	}
	cluster.SetResident(0, m+n)

	covered := make([]bool, m)
	coveredCount := 0
	uncov := make([]int, n)
	for i, s := range inst.Sets {
		uncov[i] = len(s)
	}
	var solution []int
	inSolution := make([]bool, n)
	excluded := make([]bool, n)

	if opt.Preprocess {
		// Remark 4.7. γ is computed with one aggregation up the tree (each
		// machine contributes per-element minima over its sets) and one
		// broadcast down; the simulator charges those rounds.
		gamma, err := remark47Gamma(cluster, tree, inst, ownedSets)
		if err != nil {
			return nil, err
		}
		cheap := gamma * eps / float64(n)
		expensive := float64(m) * gamma
		for i := 0; i < n; i++ {
			switch {
			case inst.Weights[i] <= cheap:
				inSolution[i] = true
				solution = append(solution, i)
				for _, e := range inst.Sets[i] {
					if !covered[e] {
						covered[e] = true
						coveredCount++
					}
				}
			case inst.Weights[i] > expensive:
				excluded[i] = true
			}
		}
		// Refresh the uncovered counts after the upfront selections.
		for i := 0; i < n; i++ {
			cnt := 0
			for _, e := range inst.Sets[i] {
				if !covered[e] {
					cnt++
				}
			}
			uncov[i] = cnt
		}
	}

	alpha := p.Mu / 8
	if alpha <= 0 {
		alpha = 0.0125
	}
	classes := int(math.Ceil(1 / alpha))
	mf := float64(m)
	groupSample := math.Pow(mf, p.Mu/2)

	// maxRatio aggregates the maximum eligible cost ratio to the central
	// machine and back (two rounds, like the f=2 aggregation).
	maxRatio := func() (float64, error) {
		cluster.ArmAll() // every machine reports its best ratio
		err := cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			best := 0.0
			for _, i := range ownedSets[machine] {
				if inSolution[i] || excluded[i] || uncov[i] == 0 {
					continue
				}
				if ratio := float64(uncov[i]) / inst.Weights[i]; ratio > best {
					best = ratio
				}
			}
			out.Begin(0)
			out.Float(best)
			out.End()
		})
		if err != nil {
			return 0, err
		}
		best := 0.0
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			if machine != 0 {
				return
			}
			for msg, ok := in.Next(); ok; msg, ok = in.Next() {
				if msg.Floats[0] > best {
					best = msg.Floats[0]
				}
			}
			for to := 1; to < M; to++ {
				out.Begin(to)
				out.Float(best)
				out.End()
			}
		})
		if err != nil {
			return 0, err
		}
		return best, nil
	}

	classOf := func(sz int) int {
		if sz <= 0 {
			return -1
		}
		i := int(math.Ceil((1 - math.Log(float64(sz))/math.Log(mf)) / alpha))
		if i < 1 {
			i = 1
		}
		if i > classes {
			i = classes
		}
		return i
	}

	L, err := maxRatio()
	if err != nil {
		return nil, err
	}
	res := &CoverResult{}
	// Each class i has 2·m^{(i+1)α} groups; group gid of class i is the
	// flat group key groupBase[i]+gid.
	width := classes + 1
	numGroups := make([]int, width)
	groupBase := make([]int, width+1)
	for i := 1; i <= classes; i++ {
		numGroups[i] = int(math.Ceil(2 * math.Pow(mf, float64(i+1)*alpha)))
		groupBase[i+1] = groupBase[i] + numGroups[i]
	}
	// A sampled set: its group ids and its uncovered elements at sampling
	// time, both carved from per-iteration slabs.
	type sampleEntry struct {
		set         int
		gids, elems []int
	}
	// Per-iteration scratch, reused across iterations.
	var (
		entries   []sampleEntry
		gidSlab   []int
		elemSlab  []int
		members   []int // (group key, entry index) pairs in draw order
		groups    buckets
		plan      roundPlan[int] // entry indices per machine
		deltaC    []int64
		classSlab = make([]int64, M*width)
		newly     = newStamps(m)
	)

	for coveredCount < m {
		if res.Iterations >= p.maxIter() {
			return nil, fmt.Errorf("core: HGSetCover exceeded %d iterations", p.maxIter())
		}
		cur, err := maxRatio()
		if err != nil {
			return nil, err
		}
		if cur <= 0 {
			return nil, fmt.Errorf("core: HGSetCover stalled with %d/%d covered", coveredCount, m)
		}
		if cur < L/(1+eps) {
			// Bucket empty: drop L. (Jumping straight to the max ratio
			// skips the empty buckets; see the doc comment.)
			L = cur
		}
		res.Iterations++
		eligible := func(i int) bool {
			return !inSolution[i] && !excluded[i] && uncov[i] > 0 &&
				float64(uncov[i])/inst.Weights[i] >= L/(1+eps)
		}

		// Aggregate class sizes |S_{k,i}| over the tree.
		clear(classSlab)
		for i := 0; i < n; i++ {
			if eligible(i) {
				classSlab[setOwner(i)*width+classOf(uncov[i])]++
			}
		}
		classCounts, err := tree.AllReduceSum(cluster, width, func(machine int) []int64 {
			return classSlab[machine*width : (machine+1)*width]
		})
		if err != nil {
			return nil, err
		}

		// Sampling round: each eligible set joins each of its class's
		// 2·m^{(i+1)α} groups independently with probability
		// min(1, m^{µ/2}/|S_{k,i}|); the set ships its uncovered elements
		// plus its group list to the central machine. Each machine's group
		// memberships are drawn before the round (machine order, then set
		// order); the closures replay the per-machine plans concurrently.
		entries, gidSlab, elemSlab, members = entries[:0], gidSlab[:0], elemSlab[:0], members[:0]
		plan.reset()
		for machine := 1; machine < M; machine++ {
			for _, i := range ownedSets[machine] {
				if !eligible(i) {
					continue
				}
				cls := classOf(uncov[i])
				if classCounts[cls] == 0 {
					continue
				}
				prob := math.Min(1, groupSample/float64(classCounts[cls]))
				k := r.Binomial(numGroups[cls], prob)
				if k == 0 {
					continue
				}
				g0 := len(gidSlab)
				gidSlab = r.SampleInto(gidSlab, numGroups[cls], k)
				e0 := len(elemSlab)
				for _, e := range inst.Sets[i] {
					if !covered[e] {
						elemSlab = append(elemSlab, e)
					}
				}
				plan.add(len(entries))
				for _, gid := range gidSlab[g0:] {
					members = append(members, groupBase[cls]+gid, len(entries))
				}
				entries = append(entries, sampleEntry{set: i,
					gids:  gidSlab[g0:len(gidSlab):len(gidSlab)],
					elems: elemSlab[e0:len(elemSlab):len(elemSlab)]})
			}
			plan.next()
		}
		plan.arm(cluster)
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for _, k := range plan.of(machine) {
				entry := &entries[k]
				out.Begin(0)
				out.Int(int64(entry.set))
				out.Int(int64(len(entry.gids)))
				for _, gid := range entry.gids {
					out.Int(int64(gid))
				}
				for _, e := range entry.elems {
					out.Int(int64(e))
				}
				out.End()
			}
		})
		if err != nil {
			return nil, err
		}
		// Every group's members in arrival order.
		groups.reset(groupBase[width])
		for j := 0; j < len(members); j += 2 {
			groups.count(members[j])
		}
		groups.fill()
		for j := 0; j < len(members); j += 2 {
			groups.put(members[j], members[j+1])
		}
		// Claim 4.1 check: any group larger than 4·m^{µ/2} fails this
		// iteration (Lines 15-17: skip to the next iteration).
		maxGroup := int(math.Ceil(4 * groupSample))
		overflow := false
		for key := 0; key < groupBase[width]; key++ {
			if len(groups.of(key)) > maxGroup {
				overflow = true
				break
			}
		}
		if overflow {
			continue
		}

		// Central machine (Lines 18-22): per class, per group, add the
		// first set that still has ≥ m^{1-(i+1)α}/2 uncovered elements.
		deltaC = deltaC[:0]
		for i := 1; i <= classes; i++ {
			threshold := math.Pow(mf, 1-float64(i+1)*alpha) / 2
			for key := groupBase[i]; key < groupBase[i+1]; key++ {
				for _, k := range groups.of(key) {
					entry := &entries[k]
					if inSolution[entry.set] {
						continue
					}
					curUncov := 0
					for _, e := range entry.elems {
						if !covered[e] {
							curUncov++
						}
					}
					if float64(curUncov) < threshold {
						continue
					}
					inSolution[entry.set] = true
					solution = append(solution, entry.set)
					for _, e := range entry.elems {
						if !covered[e] {
							covered[e] = true
							coveredCount++
							deltaC = append(deltaC, int64(e))
						}
					}
					break
				}
			}
		}

		// Broadcast ΔC down the tree; owners refresh their uncovered
		// counts.
		if err := tree.Broadcast(cluster, deltaC, nil); err != nil {
			return nil, err
		}
		newly.next()
		for _, e := range deltaC {
			newly.add(int(e))
		}
		for i := 0; i < n; i++ {
			if uncov[i] == 0 {
				continue
			}
			for _, e := range inst.Sets[i] {
				if newly.has(e) {
					uncov[i]--
				}
			}
		}
	}

	res.Cover = append([]int(nil), solution...)
	res.Weight = inst.Weight(res.Cover)
	res.Metrics = cluster.Metrics()
	return res, nil
}

// remark47Gamma computes γ = max_j min_{S∋j} w(S), the preprocessing pivot
// of Remark 4.7, charging one aggregation and one broadcast. Machines hold
// sets, so each machine first derives per-element minima over its own sets;
// the elementwise minima are combined up the tree (simulated here as a
// direct aggregation of each machine's (element, min) pairs, whose total
// volume is at most the input size).
func remark47Gamma(cluster *mpc.Cluster, tree *mpc.Tree, inst *setcover.Instance, ownedSets [][]int) (float64, error) {
	m := inst.NumElements
	// Per-machine (element, weight) payloads and the resulting elementwise
	// minima are computed up front (elements are shared across machines, so
	// the minima cannot be folded inside the concurrent round); the round
	// ships each machine's payload to the central machine.
	minW := make([]float64, m)
	for j := range minW {
		minW[j] = math.Inf(1)
	}
	var ints roundPlan[int64]
	var floats roundPlan[float64]
	ints.reset()
	floats.reset()
	for machine := 1; machine < cluster.M(); machine++ {
		for _, i := range ownedSets[machine] {
			for _, e := range inst.Sets[i] {
				ints.add(int64(e))
				floats.add(inst.Weights[i])
				if inst.Weights[i] < minW[e] {
					minW[e] = inst.Weights[i]
				}
			}
		}
		ints.next()
		floats.next()
	}
	ints.arm(cluster)
	err := cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		if len(ints.of(machine)) > 0 {
			out.Send(0, ints.of(machine), floats.of(machine))
		}
	})
	if err != nil {
		return 0, err
	}
	gamma := 0.0
	for j := 0; j < m; j++ {
		if !math.IsInf(minW[j], 1) && minW[j] > gamma {
			gamma = minW[j]
		}
	}
	// Broadcast γ so machines can apply the clamps locally.
	if err := tree.Broadcast(cluster, nil, []float64{gamma}); err != nil {
		return 0, err
	}
	return gamma, nil
}
