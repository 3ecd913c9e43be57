package main

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

func TestUploadContentIDMatchesSpecID(t *testing.T) {
	w, err := newIngest(3, service.SourceRun)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, i := range []int64{0, 1, 2, 1 << 32, warmBase + 5} {
		body := w.body(i)
		want, err := body.contentID()
		if err != nil {
			t.Fatal(err)
		}
		got, err := service.SpecID(service.InstanceSpec{Type: "upload", Data: body.bytes()})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("op %d: content id %s, service.SpecID %s", i, want, got)
		}
		if seen[got] {
			t.Fatalf("op %d repeats an earlier upload's content", i)
		}
		seen[got] = true
		if n := body.size(); n != int64(len(body.bytes())) {
			t.Fatalf("op %d: size %d, body has %d bytes", i, n, len(body.bytes()))
		}
	}
}

func TestColdMixCycle(t *testing.T) {
	w, err := newColdMix(1, service.SourceRun)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, e := range w.cycle {
		count[e.alg]++
		alg, _ := core.LookupAlgorithm(e.alg)
		if !w.specs[e.spec].Provides(alg.Input) {
			t.Errorf("%s runs on a %s instance", e.alg, w.specs[e.spec].Type)
		}
	}
	for _, a := range core.Algorithms() {
		want := coldDefaultWeight
		if v, ok := coldWeights[a.Name]; ok {
			want = v
		}
		if count[a.Name] != want {
			t.Errorf("%s appears %d times per cycle, want %d", a.Name, count[a.Name], want)
		}
	}
	if w.cycle[0].alg == w.cycle[1].alg {
		t.Error("cycle does not interleave algorithms")
	}
}

func TestWorkloadInputsFollowTheSeed(t *testing.T) {
	a, _ := newColdMix(5, service.SourceRun)
	b, _ := newColdMix(5, service.SourceRun)
	c, _ := newColdMix(6, service.SourceRun)
	for i := int64(0); i < 40; i++ {
		if !bytes.Equal(a.body(i), b.body(i)) {
			t.Fatalf("op %d differs between two builds from one seed", i)
		}
	}
	if bytes.Equal(a.body(0), c.body(0)) {
		t.Fatal("different seeds send the same request")
	}
	h1, _ := newHotRepeat(5, service.SourceCache)
	h2, _ := newHotRepeat(5, service.SourceCache)
	for k := range h1.bodies {
		if !bytes.Equal(h1.bodies[k], h2.bodies[k]) || h1.order[k] != h2.order[k] {
			t.Fatalf("hot-repeat key %d differs between two builds from one seed", k)
		}
	}
}
