package seq

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestMisraGriesAllocsIndependentOfSize pins MisraGries to a fixed set of
// buffers: colouring a near-regular graph with 20k edges allocates as
// often as one with 2k edges, up to the few growth steps of the path
// buffers. The graphs are built first, so only the colouring is counted.
func TestMisraGriesAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n, m int) float64 {
		g := graph.GNM(n, m, rng.New(3))
		g.Build()
		return testing.AllocsPerRun(3, func() { MisraGries(g) })
	}
	small, large := allocs(200, 2000), allocs(2000, 20000)
	if diff := large - small; diff < -4 || diff > 4 {
		t.Fatalf("MisraGries allocations: %v at m=2000, %v at m=20000; want equal up to 4", small, large)
	}
	if small > 32 {
		t.Fatalf("MisraGries made %v allocations at m=2000, want a fixed handful (<= 32)", small)
	}
}
