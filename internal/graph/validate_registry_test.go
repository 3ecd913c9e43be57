package graph_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestValidatorsMatchOracleOnRegistryResults runs the registry's clique
// and colouring algorithms at n=300 and requires the CSR validators, the
// map-based oracles and the registry's own validity verdict to agree on
// every result, and on the same results made invalid.
func TestValidatorsMatchOracleOnRegistryResults(t *testing.T) {
	for _, c := range []float64{0.2, 0.4} {
		g := graph.Density(300, c, rng.New(uint64(300+100*c)))
		g.AssignUniformWeights(rng.New(7), 1, 100)
		in := core.Input{Graph: g}
		for seed := uint64(1); seed <= 3; seed++ {
			p := core.Params{Mu: 0.2, Seed: seed}
			for _, name := range []string{"clique", "vcolour", "ecolour"} {
				alg, _ := core.LookupAlgorithm(name)
				run, err := alg.Run(in, p, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				switch name {
				case "clique":
					res, err := core.MaximalClique(g, p)
					if err != nil {
						t.Fatal(err)
					}
					set := res.Clique
					verdicts(t, name, run.Valid, graph.IsMaximalClique(g, set), graph.OracleIsMaximalClique(g, set))
					if !graph.IsClique(g, set) || !graph.OracleIsClique(g, set) {
						t.Fatalf("clique: result is not a clique")
					}
					for _, bad := range [][]int{
						set[1:], // no longer maximal
						append(append([]int(nil), set...), set[0]),
						append(append([]int(nil), set...), g.N),
						append(append([]int(nil), set...), -1),
					} {
						if got, want := graph.IsMaximalClique(g, bad), graph.OracleIsMaximalClique(g, bad); got != want {
							t.Fatalf("clique: IsMaximalClique = %v, oracle %v", got, want)
						}
						if got, want := graph.IsClique(g, bad), graph.OracleIsClique(g, bad); got != want {
							t.Fatalf("clique: IsClique = %v, oracle %v", got, want)
						}
					}
				case "vcolour":
					res, err := core.VertexColouring(g, p)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := graph.NumColours(res.Colours), graph.OracleNumColours(res.Colours); got != want || got != run.Size {
						t.Fatalf("vcolour: NumColours = %d, oracle %d, registry %d", got, want, run.Size)
					}
				case "ecolour":
					res, err := core.EdgeColouring(g, p)
					if err != nil {
						t.Fatal(err)
					}
					col := res.Colours
					verdicts(t, name, run.Valid, graph.IsProperEdgeColouring(g, col), graph.OracleIsProperEdgeColouring(g, col))
					if got, want := graph.NumColours(col), graph.OracleNumColours(col); got != want || got != run.Size {
						t.Fatalf("ecolour: NumColours = %d, oracle %d, registry %d", got, want, run.Size)
					}
					// Give edge 0 the colour of an edge it shares a vertex with.
					e0 := g.Edges[0]
					for id, e := range g.Edges[1:] {
						if e.U == e0.U || e.V == e0.U || e.U == e0.V || e.V == e0.V {
							bad := append([]int(nil), col...)
							bad[0] = col[id+1]
							verdicts(t, "ecolour clash", false, graph.IsProperEdgeColouring(g, bad), graph.OracleIsProperEdgeColouring(g, bad))
							break
						}
					}
					bad := append([]int(nil), col...)
					bad[len(bad)-1] = -1
					if got, want := graph.IsProperEdgeColouring(g, bad), graph.OracleIsProperEdgeColouring(g, bad); got != want {
						t.Fatalf("ecolour: colour -1: IsProperEdgeColouring = %v, oracle %v", got, want)
					}
					verdicts(t, "ecolour short", false, graph.IsProperEdgeColouring(g, col[1:]), graph.OracleIsProperEdgeColouring(g, col[1:]))
				}
			}
		}
	}
}

func verdicts(t *testing.T, label string, want, got, oracle bool) {
	t.Helper()
	if got != want || oracle != want {
		t.Fatalf("%s: validator %v, oracle %v, want %v", label, got, oracle, want)
	}
}
