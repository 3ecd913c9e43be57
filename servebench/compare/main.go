// Command compare judges two sets of servebench runs against each other:
// the parent commit's (base) and a change's (head). Each input is a file
// of JSON lines written by servebench --out; run i of a workload in one
// file is paired with run i of the same workload in the other, so
// alternate the two sides when collecting them. For every workload and
// metric it prints each side's median and quartiles, the pairs head won,
// and a verdict — improved, worse, unchanged or unresolved — judged
// against the bounds in BENCHMARK.json (stats.Compare has the rules).
//
// Usage (from the servebench directory):
//
//	go run ./compare -bench ../BENCHMARK.json base.jsonl head.jsonl
//
// It exits 1 when any metric is worse.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/servebench/stats"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []stats.Metric `json:"end_to_end"`
	PerLayer []stats.Metric `json:"per_layer"`
}

// run is one line of a servebench --out file.
type run struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Correct  bool   `json:"correct"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics and their bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] base.jsonl head.jsonl")
		os.Exit(2)
	}
	if err := compare(*benchPath, flag.Arg(0), flag.Arg(1)); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

func compare(benchPath, basePath, headPath string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := readRuns(basePath)
	if err != nil {
		return err
	}
	head, err := readRuns(headPath)
	if err != nil {
		return err
	}
	keys := make([]groupKey, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	worse := 0
	for _, k := range keys {
		metrics := bf.EndToEnd
		if k.trace == 1 {
			metrics = bf.PerLayer
		}
		b, h := base[k], head[k]
		fmt.Printf("## %s (trace %d): %d base runs, %d head runs\n", k.workload, k.trace, len(b), len(h))
		fmt.Printf("%-36s %-30s %-30s %7s %8s %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "won", "change", "verdict")
		for _, m := range metrics {
			c := stats.Compare(m, values(b, m.Name), values(h, m.Name))
			if c.Verdict == stats.Worse {
				worse++
			}
			fmt.Printf("%-36s %-30s %-30s %3d/%-3d %+7.1f%% %s\n", m.Name, quartiles(c.Base), quartiles(c.Head),
				c.Won, c.Pairs, 100*c.Change, c.Verdict)
		}
	}
	for k := range head {
		if _, ok := base[k]; !ok {
			fmt.Printf("## %s (trace %d): head runs without base runs, not compared\n", k.workload, k.trace)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse", worse)
	}
	return nil
}

type groupKey struct {
	workload string
	trace    int
}

// readRuns reads a --out file, grouped by workload and trace mode in file
// order. A run that failed its correctness gate is an error: its figures
// are not comparable.
func readRuns(path string) (map[groupKey][]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[groupKey][]run)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s:%d: %s run failed its correctness gate", path, line, r.Workload)
		}
		k := groupKey{r.Workload, r.Trace}
		out[k] = append(out[k], r)
	}
	return out, sc.Err()
}

// values lists one metric across runs, skipping runs that lack it.
func values(runs []run, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func quartiles(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
