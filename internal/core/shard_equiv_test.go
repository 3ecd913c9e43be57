package core

// Sharded-execution equivalence: the repo's determinism contract extends
// across process topologies. Every registered algorithm — graph, vertex
// cover, and set cover inputs alike — must produce bit-identical summaries
// and full mpc.Metrics whether its clusters run unsharded, partitioned
// across K in-memory shards, or partitioned across K TCP-loopback shards
// (real sockets, framing, and checksums in one process). The test runs
// under -race in CI, so it also exercises the transport goroutines against
// the parallel executor.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/rng"
	"repro/internal/setcover"
)

func TestShardedEquivalence(t *testing.T) {
	r := rng.New(4242)
	g := graph.Density(220, 0.4, r)
	g.AssignUniformWeights(r, 1, 20)
	cover := setcover.RandomFrequency(24, 160, 3, 5, rng.New(7))

	vcWeights := func(g *graph.Graph) []float64 {
		w := make([]float64, g.N)
		wr := rng.New(11)
		for i := range w {
			w[i] = wr.UniformWeight(1, 10)
		}
		return w
	}
	input := func(kind InputKind) Input {
		switch kind {
		case InputSetCover:
			return Input{Cover: cover}
		case InputVertexCover:
			return Input{Graph: g, Cover: setcover.FromVertexCover(g, vcWeights(g))}
		default:
			return Input{Graph: g}
		}
	}

	variants := []struct {
		name      string
		shards    int
		transport mpc.TransportFactory
	}{
		{"mem-k2", 2, nil},
		{"mem-k4", 4, nil},
		{"tcp-k2", 2, mpc.TCPLoopback(mpc.TransportOpts{})},
		{"tcp-k4", 4, mpc.TCPLoopback(mpc.TransportOpts{})},
	}

	ran := 0
	for _, alg := range Algorithms() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			base := Params{Mu: 0.3, Seed: 99, Workers: 2}
			want, err := alg.Run(input(alg.Input), base, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range variants {
				p := base
				p.Shards = v.shards
				p.Transport = v.transport
				got, err := alg.Run(input(alg.Input), p, nil)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if got.Summary != want.Summary {
					t.Errorf("%s: summary differs:\n  1-process: %s\n  sharded:   %s", v.name, want.Summary, got.Summary)
				}
				if got.Metrics != want.Metrics {
					t.Errorf("%s: metrics differ:\n  1-process: %+v\n  sharded:   %+v", v.name, want.Metrics, got.Metrics)
				}
				if got.Size != want.Size || got.Weight != want.Weight ||
					got.Valid != want.Valid || got.Iterations != want.Iterations {
					t.Errorf("%s: scalars differ: 1-process %+v, sharded %+v", v.name, want, got)
				}
			}
		})
		ran++
	}
	if ran < 10 {
		t.Fatalf("only %d algorithms exercised; registry shrank?", ran)
	}
}

// TestShardedParamsThread checks the Params plumbing end to end: a sharded
// run actually builds sharded clusters (visible through transport activity
// when a TCP factory is installed).
func TestShardedParamsThread(t *testing.T) {
	r := rng.New(3)
	g := graph.Density(120, 0.3, r)
	g.AssignUniformWeights(r, 1, 5)
	alg, ok := LookupAlgorithm("matching")
	if !ok {
		t.Fatal("matching not registered")
	}
	before, _ := mpc.TransportTotals()
	if _, err := alg.Run(Input{Graph: g}, Params{Mu: 0.2, Seed: 5, Shards: 2}, nil); err != nil {
		t.Fatal(err)
	}
	after, _ := mpc.TransportTotals()
	if after <= before {
		t.Fatalf("sharded run moved no transport batches (before %d, after %d)", before, after)
	}
}

// TestShardedStrictStillFails: strict space-cap failures propagate
// unchanged through the sharded path.
func TestShardedStrictStillFails(t *testing.T) {
	r := rng.New(9)
	g := graph.Density(200, 0.5, r)
	g.AssignUniformWeights(r, 1, 5)
	alg, ok := LookupAlgorithm("matching")
	if !ok {
		t.Fatal("matching not registered")
	}
	p := Params{Mu: 0.0, Seed: 1, Strict: true}
	_, errPlain := alg.Run(Input{Graph: g}, p, nil)
	p.Shards = 3
	_, errShard := alg.Run(Input{Graph: g}, p, nil)
	if (errPlain == nil) != (errShard == nil) {
		t.Fatalf("strict behaviour diverged: unsharded err=%v, sharded err=%v", errPlain, errShard)
	}
	if errPlain != nil && errShard != nil && errPlain.Error() != errShard.Error() {
		t.Fatalf("strict errors diverged: unsharded %q, sharded %q", errPlain, errShard)
	}
}
