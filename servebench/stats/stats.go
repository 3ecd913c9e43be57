// Package stats holds the serving benchmark's arithmetic: latency
// percentiles and the sample-count rule that decides which of them a run
// may report, quartiles computed exactly as Python's
// statistics.quantiles(n=4) computes them, the paired comparison of two
// sets of runs, and the digest of deterministic job results.
package stats

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a percentile before a run
// may report it.
const MinBeyond = 10

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which must be sorted ascending and non-empty.
func Percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Supports reports whether n samples leave at least MinBeyond of them
// beyond the p-th percentile.
func Supports(n int, p float64) bool {
	// The tolerance absorbs rounding in 100-p for fractional percentiles.
	return float64(n)*(100-p)/100 >= MinBeyond-1e-9
}

// HighestSupported returns the highest of the percentiles 99.9, 99, 95, 90
// and 50 that n samples support, or 0 when none is.
func HighestSupported(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 50} {
		if Supports(n, p) {
			return p
		}
	}
	return 0
}

// Median returns the median of xs (the mean of the middle two for an even
// count); 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does with its default exclusive method.
// With fewer than two values every cut point is that value.
func Quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	ld := len(s)
	var q [3]float64
	switch ld {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Verdict is the outcome of comparing one metric across two sets of runs.
type Verdict string

const (
	Improved   Verdict = "improved"
	Worse      Verdict = "worse"
	Unchanged  Verdict = "unchanged"
	Unresolved Verdict = "unresolved"
)

// Metric describes how to judge one metric: which direction is better and
// the share of the base median by which it may worsen (0 = no bound).
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Comparison is one metric judged over paired runs.
type Comparison struct {
	Metric  Metric
	Base    [3]float64 // quartiles of the base runs
	Head    [3]float64 // quartiles of the head runs
	Pairs   int        // pairs compared: run i of base against run i of head
	Won     int        // pairs where head reads strictly better
	Lost    int        // pairs where head reads strictly worse
	Change  float64    // (head median - base median) / base median
	Verdict Verdict
}

// Compare judges head against base for one metric. Run i of each side
// forms a pair. A gain needs head to win at least nine tenths of the pairs
// (ties count for neither side) and the medians to differ by more than the
// base runs' interquartile range. A bounded metric is worse when the head
// median is worse than the base median by more than the bound; when the
// spread of either side is wider than the bound it is unresolved, unless
// every head run reads better than every base run. A metric without a
// bound is worse only by the mirror of the gain rule.
func Compare(m Metric, base, head []float64) Comparison {
	c := Comparison{Metric: m, Base: Quartiles(base), Head: Quartiles(head)}
	c.Pairs = len(base)
	if len(head) < c.Pairs {
		c.Pairs = len(head)
	}
	if c.Pairs == 0 {
		c.Verdict = Unresolved
		return c
	}
	lower := m.Better == "lower"
	better := func(h, b float64) bool {
		if lower {
			return h < b
		}
		return h > b
	}
	for i := 0; i < c.Pairs; i++ {
		switch {
		case better(head[i], base[i]):
			c.Won++
		case better(base[i], head[i]):
			c.Lost++
		}
	}
	baseMed, headMed := c.Base[1], c.Head[1]
	if baseMed != 0 {
		c.Change = (headMed - baseMed) / math.Abs(baseMed)
	}
	gain := headMed - baseMed // how much better head reads, in metric units
	if lower {
		gain = -gain
	}
	baseIQR := c.Base[2] - c.Base[0]
	switch {
	case 10*c.Won >= 9*c.Pairs && gain > baseIQR:
		c.Verdict = Improved
	case m.Bound == 0:
		if 10*c.Lost >= 9*c.Pairs && -gain > baseIQR {
			c.Verdict = Worse
		} else {
			c.Verdict = Unchanged
		}
	case baseMed == 0:
		c.Verdict = Unresolved
	case math.Max(spread(c.Base), spread(c.Head)) > m.Bound:
		if allBetter(head, base, better) {
			c.Verdict = Unchanged
		} else {
			c.Verdict = Unresolved
		}
	case -gain/math.Abs(baseMed) > m.Bound:
		c.Verdict = Worse
	default:
		c.Verdict = Unchanged
	}
	return c
}

// spread is the interquartile range as a share of the median, from
// quartiles; 0 when the median is 0.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// allBetter reports whether every head value reads better than every base
// value.
func allBetter(head, base []float64, better func(h, b float64) bool) bool {
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				return false
			}
		}
	}
	return true
}

// Digest hashes a sequence of JSON documents into one hex string that
// depends only on their values: key order, whitespace and number spelling
// do not change it, any changed, added or removed value does.
func Digest(docs [][]byte) (string, error) {
	h := sha256.New()
	for i, d := range docs {
		c, err := canonicalJSON(d)
		if err != nil {
			return "", fmt.Errorf("digest: document %d: %w", i, err)
		}
		fmt.Fprintf(h, "%d:", len(c))
		h.Write(c)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// canonicalJSON re-encodes a JSON document with sorted object keys, no
// insignificant whitespace and numbers in their shortest float64 form.
func canonicalJSON(doc []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after JSON value")
	}
	v, err := normalizeNumbers(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// normalizeNumbers replaces json.Number leaves with float64 so "2" and
// "2.0" digest alike; the benchmark's integers are far below 2^53.
func normalizeNumbers(v any) (any, error) {
	switch t := v.(type) {
	case json.Number:
		return t.Float64()
	case []any:
		for i := range t {
			x, err := normalizeNumbers(t[i])
			if err != nil {
				return nil, err
			}
			t[i] = x
		}
	case map[string]any:
		for k := range t {
			x, err := normalizeNumbers(t[k])
			if err != nil {
				return nil, err
			}
			t[k] = x
		}
	}
	return v, nil
}
