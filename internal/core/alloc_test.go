package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// The hot paths allocate per round, not per item: these tests pin the
// allocation profile on deterministic counts.

func TestPartitionByOwnerAllocsConstant(t *testing.T) {
	owner := func(id int) int { return id % 7 }
	for _, count := range []int{1, 1000, 50000} {
		if got := testing.AllocsPerRun(100, func() { partitionByOwner(count, 7, owner) }); got != 3 {
			t.Errorf("partitionByOwner(%d, 7) made %v allocations, want 3", count, got)
		}
	}
}

// TestMISSamplingRoundAllocsPerMachine gathers every vertex of an
// n=2000 graph with its alive neighbour list in one sampling round. The
// candidates and their lists come from reused round scratch, so the round
// allocates O(M) (the simulator's per-machine columns), not O(sample).
func TestMISSamplingRoundAllocsPerMachine(t *testing.T) {
	n := 2000
	g := graph.Density(n, 0.3, rng.New(5))
	p := Params{Mu: 0.1, Seed: 1}
	etaWords := eta(n, p.Mu, 8)
	M := dataMachines(3*n+2*g.M(), 4*etaWords)
	cluster := newCluster(M, etaWords, p, capSlack)
	defer cluster.Close()
	s := newMISState(g, cluster, rng.New(1))
	var sample int
	allocs := testing.AllocsPerRun(5, func() {
		cands, err := s.sampleToCentral(s.aliveVertex, always)
		if err != nil {
			t.Fatal(err)
		}
		sample = len(cands)
	})
	if sample != n {
		t.Fatalf("sampled %d candidates, want all %d", sample, n)
	}
	bound := float64(8*M + 16)
	if raceEnabled {
		bound = float64(n / 10) // still far below one allocation per candidate
	}
	if allocs > bound {
		t.Fatalf("sampling round of %d candidates on M=%d machines made %v allocations, want <= %v", sample, M, allocs, bound)
	}
}
