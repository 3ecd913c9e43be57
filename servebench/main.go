// Command servebench is the serving benchmark: it runs mrserve's engine
// behind a real loopback HTTP listener, drives it with a closed loop of
// clients on one of three workloads, checks every reply, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics, by name and
// unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root):
//
//	bash servebench/run.sh --workload cold-mix --seed 1 --seconds 30 --trace 0
//
// WORKLOADS.md records why each workload exists and how it is sized.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	_ "embed"

	"repro/internal/core"
	"repro/servebench/stats"
)

// defaultSeed is the seed whose result digests golden.json records.
const defaultSeed = 1

// setupRuns is how many times a run sets up a server; setup_s is their
// median and the last one is measured.
const setupRuns = 5

// windows splits an untraced run's measured time; the throughput and
// per-operation resource figures are medians over them.
const windows = 5

//go:embed golden.json
var goldenJSON []byte

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: cold-mix, hot-repeat or ingest")
	seed := flag.Uint64("seed", defaultSeed, "workload seed: the same seed sends the same requests")
	seconds := flag.Float64("seconds", 30, "measured time")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "servebench"), "working directory for servers, ledgers and traces (one run at a time)")
	out := flag.String("out", "", "append this run's result, tagged with workload and seed, to this JSON-lines file (for the compare command)")
	recordGolden := flag.String("record-golden", "", "write this run's default-seed result digest into this golden file")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "servebench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	b, err := newBench(*name, *seed, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	defer b.cleanup()
	res, err := b.measure(time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err == nil {
		err = b.check(*recordGolden)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		res.Correct = false
	}
	b.print(res)
	if *out != "" {
		if err := appendRecord(*out, *name, *seed, *trace, b.samples, res); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run: a workload, its measured server and what was seen.
type bench struct {
	name     string
	seed     uint64
	dir      string
	clients  int
	w        workload
	srv      *server
	setupS   []float64
	samples  int
	lines    []string // human-readable report
	replayer *replayer
}

func newBench(name string, seed uint64, dir string) (*bench, error) {
	w, err := newWorkload(name, seed, false)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A run that was killed leaves its server directories behind; runs in
	// one directory never overlap, so whatever is there now is stale.
	for _, pattern := range []string{"server-*", "replay-*"} {
		stale, _ := filepath.Glob(filepath.Join(dir, pattern))
		for _, d := range stale {
			os.RemoveAll(d)
		}
	}
	clients := min(w.clients(), runtime.NumCPU())
	b := &bench{name: name, seed: seed, dir: dir, clients: clients, w: w}
	for k := 0; k < setupRuns; k++ {
		start := time.Now()
		s, err := startServer(dir)
		if err != nil {
			b.cleanup()
			return nil, err
		}
		if err := warmServer(s, w, clients, seed); err != nil {
			s.close()
			b.cleanup()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
		if k < setupRuns-1 {
			s.close()
		} else {
			b.srv = s
		}
	}
	return b, nil
}

// warmServer brings a fresh server to the steady state of a long-lived
// daemon: a full job history, then the workload's own warm-up.
func warmServer(s *server, w workload, clients int, seed uint64) error {
	if !w.fillsHistory() {
		if err := fillHistory(s, clients, seed); err != nil {
			return err
		}
	}
	return w.warm(s, clients)
}

func (b *bench) cleanup() {
	if b.replayer != nil {
		b.replayer.close()
	}
	if b.srv != nil {
		b.srv.close()
	}
}

// httpOp times one operation against the measured server.
func (b *bench) httpOp(_ int, i int64) (opDone, time.Duration, error) {
	start := time.Now()
	d, err := b.w.op(b.srv, i)
	return d, time.Since(start), err
}

func (b *bench) report(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// measure runs the closed loop and computes the run's metrics.
func (b *bench) measure(d time.Duration, traced bool) (result, error) {
	b.report("workload %s seed %d: closed loop of %d client(s), %d set-ups", b.name, b.seed, b.clients, setupRuns)
	if traced {
		return b.measureTraced(d)
	}
	t, ws := closedLoop(b.clients, 0, windows, d/windows, b.httpOp)
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]value{}}
	if err := b.failures(t); err != nil {
		return res, err
	}
	b.samples = len(t.latMS)
	for _, w := range ws {
		if !stats.Supports(len(w.latMS), 95) {
			return res, fmt.Errorf("a window of %d samples does not support a 95th percentile; raise --seconds", len(w.latMS))
		}
		sort.Float64s(w.latMS)
	}
	perWindow := func(f func(w window) float64) float64 {
		xs := make([]float64, len(ws))
		for k, w := range ws {
			xs[k] = f(w)
		}
		return stats.Median(xs)
	}
	m := res.Metrics
	m["throughput_ops_s"] = value{perWindow(func(w window) float64 { return w.ops / w.seconds }), "1/s"}
	m["latency_p50_ms"] = value{perWindow(func(w window) float64 { return stats.Percentile(w.latMS, 50) }), "ms"}
	m["latency_p95_ms"] = value{perWindow(func(w window) float64 { return stats.Percentile(w.latMS, 95) }), "ms"}
	m["cpu_ms_per_op"] = value{perWindow(func(w window) float64 { return w.cpu.Seconds() * 1e3 / w.ops }), "ms"}
	m["allocs_per_op"] = value{perWindow(func(w window) float64 { return w.mallocs / w.ops }), "count"}
	m["alloc_kb_per_op"] = value{perWindow(func(w window) float64 { return w.bytes / 1024 / w.ops }), "KiB"}
	m["max_rss_mb"] = value{maxRSSMB(), "MiB"}
	m["setup_s"] = value{stats.Median(b.setupS), "s"}
	sort.Float64s(t.latMS)
	top := stats.HighestSupported(b.samples)
	b.report("samples %d (latency percentiles up to p%g have at least %d samples beyond them)", b.samples, top, stats.MinBeyond)
	b.report("latency_p%g_ms %.4f ms", top, stats.Percentile(t.latMS, top))
	b.report("failed_ratio %.4f (%d of %d operations)", float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	return res, nil
}

// failures turns a tally's failed operations into the run's error.
func (b *bench) failures(t tally) error {
	if t.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d operations failed; first: %s", t.failed, t.attempted, strings.Join(t.errs, "; "))
}

// check runs the end-of-run correctness gate: the default-seed result
// digest and the ledger's integrity and durability.
func (b *bench) check(recordGolden string) error {
	g, err := newWorkload(b.name, defaultSeed, true)
	if err != nil {
		return err
	}
	var docs [][]byte
	for i := int64(0); i < g.goldenOps(); i++ {
		d, err := g.op(b.srv, i)
		if err != nil {
			return fmt.Errorf("default-seed operation %d: %w", i, err)
		}
		docs = append(docs, d.job.raw)
	}
	digest, err := stats.Digest(docs)
	if err != nil {
		return err
	}
	golden := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if recordGolden != "" {
		golden[b.name] = digest
		out, _ := json.MarshalIndent(golden, "", "  ")
		if err := os.WriteFile(recordGolden, append(out, '\n'), 0o644); err != nil {
			return err
		}
	} else if want, ok := golden[b.name]; !ok {
		return fmt.Errorf("golden.json has no digest for %s", b.name)
	} else if digest != want {
		return fmt.Errorf("default-seed result digest %s, golden.json records %s", digest, want)
	}
	if recordGolden != "" {
		b.report("result digest (default seed, %d jobs) %s: recorded in %s", g.goldenOps(), digest[:16], recordGolden)
	} else {
		b.report("result digest (default seed, %d jobs) %s: matches golden.json", g.goldenOps(), digest[:16])
	}
	if err := b.srv.checkLedger(); err != nil {
		return err
	}
	b.report("ledger: verify ok, every record durable after flush")
	return nil
}

func (b *bench) print(res result) {
	for _, l := range b.lines {
		fmt.Println(l)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// record is one line of a --out file.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Samples  int    `json:"samples"`
	result
}

func appendRecord(path, name string, seed uint64, trace, samples int, res result) error {
	line, err := json.Marshal(record{Workload: name, Seed: seed, Trace: trace, Samples: samples, result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// algorithmNames lists the registry, for the per-algorithm metrics.
func algorithmNames() []string {
	var names []string
	for _, a := range core.Algorithms() {
		names = append(names, a.Name)
	}
	return names
}
