package stats

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10.5, 9.1, 11.2, 10.0, 9.8, 10.3, 10.1, 9.9, 10.7, 10.2}, [3]float64{9.875, 10.15, 10.55}},
	}
	for _, c := range cases {
		got := Quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("Quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(1..200, %g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestSampleCountRule(t *testing.T) {
	// A percentile needs at least ten samples beyond it.
	cases := []struct {
		n    int
		p95  bool
		high float64
	}{
		{19, false, 0},
		{20, false, 50},
		{199, false, 90},
		{200, true, 95},
		{999, true, 95},
		{1000, true, 99},
		{10000, true, 99.9},
	}
	for _, c := range cases {
		if got := Supports(c.n, 95); got != c.p95 {
			t.Errorf("Supports(%d, 95) = %v, want %v", c.n, got, c.p95)
		}
		if got := HighestSupported(c.n); got != c.high {
			t.Errorf("HighestSupported(%d) = %g, want %g", c.n, got, c.high)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lat := Metric{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	thr := Metric{Name: "throughput_ops_s", Better: "higher", Bound: 0.1}
	layer := Metric{Name: "core.run_ms", Better: "lower"}
	base := []float64{10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	// Alternate which side reads higher so pairs split evenly.
	same := []float64{10.1, 10.1, 10.0, 10.0, 10.1, 9.7, 10.4, 10.0, 10.0, 9.9}
	cases := []struct {
		name       string
		m          Metric
		base, head []float64
		want       Verdict
	}{
		{"faster by far more than the spread", lat, base, scale(base, 0.8), Improved},
		{"same code", lat, base, same, Unchanged},
		{"slower past the bound", lat, base, scale(base, 1.2), Worse},
		{"slower within the bound", lat, base, scale(base, 1.05), Unchanged},
		{"throughput up", thr, base, scale(base, 1.3), Improved},
		{"throughput down past the bound", thr, base, scale(base, 0.7), Worse},
		{"spread wider than the bound", lat, base,
			[]float64{8, 14, 9, 13, 10, 12, 7, 15, 10, 11}, Unresolved},
		{"eight of ten pairs won is no gain", lat, base,
			[]float64{9.0, 9.2, 8.9, 9.1, 9.0, 8.8, 9.3, 9.1, 10.0, 10.1}, Unchanged},
		{"no runs", lat, nil, nil, Unresolved},
		{"unbounded layer metric, same code", layer, base, same, Unchanged},
		{"unbounded layer metric, slower everywhere", layer, base, scale(base, 1.5), Worse},
	}
	for _, c := range cases {
		got := Compare(c.m, c.base, c.head)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (won %d/%d, change %+.3f)",
				c.name, got.Verdict, c.want, got.Won, got.Pairs, got.Change)
		}
	}
}

func TestCompareWideSpreadAllBetterIsNotUnresolved(t *testing.T) {
	m := Metric{Name: "latency_p95_ms", Better: "lower", Bound: 0.05}
	base := []float64{20, 30, 25, 35, 22, 28, 33, 21, 26, 31}
	head := []float64{10, 12, 18, 11, 15, 19, 13, 14, 16, 17}
	c := Compare(m, base, head)
	if c.Verdict != Improved {
		t.Fatalf("verdict %s, want improved (won %d/%d)", c.Verdict, c.Won, c.Pairs)
	}
	// Same runs but the gain is smaller than the base spread: all head runs
	// still read better than all base runs, so this is not unresolved.
	head2 := []float64{19, 19.5, 18, 19.9, 18.5, 19.2, 19.7, 18.8, 19.1, 19.4}
	base2 := []float64{20, 26, 21, 27, 22, 28, 23, 29, 24, 20.5}
	c = Compare(m, base2, head2)
	if c.Verdict == Unresolved || c.Verdict == Worse {
		t.Fatalf("verdict %s, want improved or unchanged", c.Verdict)
	}
}

func TestDigestStability(t *testing.T) {
	a := []byte(`{"alg":"matching","seed":7,"metrics":{"Rounds":8,"WordsSent":221792},"weight":12.5,"valid":true}`)
	b := []byte("{\n  \"valid\": true,\n  \"weight\": 12.50,\n  \"metrics\": {\"WordsSent\": 221792, \"Rounds\": 8.0},\n  \"seed\": 7,\n  \"alg\": \"matching\"\n}\n")
	da, err := Digest([][]byte{a, a})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Digest([][]byte{b, b})
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("digest changed with key order and spelling: %s vs %s", da, db)
	}
	again, _ := Digest([][]byte{a, a})
	if again != da {
		t.Fatal("digest is not deterministic")
	}
	changed := []byte(`{"alg":"matching","seed":7,"metrics":{"Rounds":9,"WordsSent":221792},"weight":12.5,"valid":true}`)
	for name, docs := range map[string][][]byte{
		"changed value":  {a, changed},
		"dropped result": {a},
	} {
		d, err := Digest(docs)
		if err != nil {
			t.Fatal(err)
		}
		if d == da {
			t.Errorf("%s: digest did not change", name)
		}
	}
	ab, _ := Digest([][]byte{a, changed})
	ba, _ := Digest([][]byte{changed, a})
	if ab == ba {
		t.Error("digest ignores result order")
	}
	if _, err := Digest([][]byte{[]byte(`{"a":`)}); err == nil {
		t.Error("truncated JSON digested without error")
	}
}
