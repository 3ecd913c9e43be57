package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runWarm sends n operations from a closed loop of clients, untimed.
func runWarm(clients int, n int64, op func(i int64) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				if err := op(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					next.Store(n)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// tally is one client's record of the operations it completed.
type tally struct {
	latMS []float64
	// endAt[k] is when the operation of latMS[k] finished.
	endAt               []time.Time
	attempted, failed   int64
	reqBytes, respBytes int64
	// Model counts summed over the jobs that executed (source "run"),
	// straight from each job's own mpc.Metrics.
	jobsRun                          int64
	rounds, words, messages, actives int64
	errs                             []string
}

func (t *tally) add(o *tally) {
	t.latMS = append(t.latMS, o.latMS...)
	t.endAt = append(t.endAt, o.endAt...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.reqBytes += o.reqBytes
	t.respBytes += o.respBytes
	t.jobsRun += o.jobsRun
	t.rounds += o.rounds
	t.words += o.words
	t.messages += o.messages
	t.actives += o.actives
	if len(t.errs) < 5 {
		t.errs = append(t.errs, o.errs...)
	}
}

// record folds one finished operation into the tally.
func (t *tally) record(lat time.Duration, d opDone, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
		return
	}
	t.latMS = append(t.latMS, float64(lat)/float64(time.Millisecond))
	t.endAt = append(t.endAt, time.Now())
	t.reqBytes += d.reqBytes
	t.respBytes += d.respBytes
	if d.job.source == "run" {
		m := d.job.result.Metrics
		t.jobsRun++
		t.rounds += int64(m.Rounds)
		t.words += m.WordsSent
		t.messages += m.Messages
		t.actives += m.ActiveSum
	}
}

// snapshot is the process's cumulative resource use at one instant.
type snapshot struct {
	at       time.Time
	ops      int64
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCPU    float64
	totalCPU float64
	gcCycles uint64
}

// runtimeSamples are the runtime/metrics read at every snapshot.
var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func takeSnapshot(ops int64) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{at: time.Now(), ops: ops, cpu: processCPU(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	samples := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(samples)
	s.gcCPU = samples[0].Value.Float64()
	s.totalCPU = samples[1].Value.Float64()
	s.gcCycles = samples[2].Value.Uint64()
	return s
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// window is the resource use between two snapshots and the latencies of
// the operations that finished in it.
type window struct {
	latMS        []float64
	seconds, ops float64
	cpu          time.Duration
	mallocs      float64
	bytes        float64
	gcCPU, cpuS  float64
	gcCycles     float64
}

func between(a, b snapshot) window {
	return window{
		seconds:  b.at.Sub(a.at).Seconds(),
		ops:      float64(b.ops - a.ops),
		cpu:      b.cpu - a.cpu,
		mallocs:  float64(b.mallocs - a.mallocs),
		bytes:    float64(b.bytes - a.bytes),
		gcCPU:    b.gcCPU - a.gcCPU,
		cpuS:     b.totalCPU - a.totalCPU,
		gcCycles: float64(b.gcCycles - a.gcCycles),
	}
}

// closedLoop runs clients that each send their next operation only after
// the previous reply, for windows consecutive windows of length per, and
// returns the merged tallies and the resource use of each window.
// Operations still in flight when the last window closes finish but are
// not counted in any window; their latencies are kept.
func closedLoop(clients int, start int64, windows int, per time.Duration,
	op func(client int, i int64) (opDone, time.Duration, error)) (tally, []window) {
	var next atomic.Int64
	next.Store(start)
	var done atomic.Int64
	var stop atomic.Bool
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	snaps := []snapshot{takeSnapshot(0)}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			for !stop.Load() {
				i := next.Add(1) - 1
				d, lat, err := op(c, i)
				t.record(lat, d, err)
				done.Add(1)
			}
		}(c)
	}
	for w := 1; w <= windows; w++ {
		time.Sleep(time.Until(snaps[0].at.Add(time.Duration(w) * per)))
		snaps = append(snaps, takeSnapshot(done.Load()))
	}
	stop.Store(true)
	wg.Wait()
	var all tally
	for c := range tallies {
		all.add(&tallies[c])
	}
	ws := make([]window, windows)
	for w := range ws {
		ws[w] = between(snaps[w], snaps[w+1])
	}
	for k, end := range all.endAt {
		for w := range ws {
			if end.After(snaps[w].at) && !end.After(snaps[w+1].at) {
				ws[w].latMS = append(ws[w].latMS, all.latMS[k])
				break
			}
		}
	}
	return all, ws
}
