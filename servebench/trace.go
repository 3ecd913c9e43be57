package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/service"
)

// The traced run times the layers from outside. After each operation's
// HTTP round trip, the client replays the same operation through
// successively narrower public entry points: a GET of the finished job
// over the same HTTP stack (the HTTP and JSON cost of a reply of the same
// size), Engine.Submit and Job.Wait on a second engine in the same steady
// state (so the replay is served the same way, from cache or by
// execution), core.Algorithm.Run with an obs sink that reports every
// simulator round, the graph and spec functions an upload goes through,
// and a Ledger.Append and Ledger.Sync of the record the engine would
// write. A layer's self time is the mean time of its entry point minus the
// mean time of the entry points it encloses; what the layers leave of the
// mean operation time is reported as unattributed. Means are used because
// a replay runs at another moment than the operation it repeats, so a
// per-operation difference is noisy while the difference of means over
// thousands of operations is not. Spans of one operation share its index
// as trace id and are written to a file when the run ends.

// span is one timed call. Parent is the span id of the enclosing entry
// point (0 for the operation's root); Replay marks a span that re-executes
// its parent's work through a narrower entry point after the parent ended,
// rather than lying inside its interval.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// roundSink collects the round spans of one direct core run.
type roundSink struct{ rounds []obs.RoundSpan }

func (s *roundSink) RoundDone(r obs.RoundSpan) { r.ShardWords = nil; s.rounds = append(s.rounds, r) }
func (s *roundSink) Close() error              { return nil }

// layerTimes accumulates one client's per-layer timings, in microseconds
// summed over its traced operations.
type layerTimes struct {
	ops                                  int64
	latMS                                []float64
	op, httpGet, submit, wait            float64
	coreRun, rounds                      float64
	coreRuns                             int64
	byAlg                                map[string][2]float64 // alg -> {sum µs, count}
	compute, merge, barrier              float64
	uploads                              int64
	specID, decode, encode, cwrite, open float64
	upload, uploadBytes                  float64
	appends                              int64
	appendUS, syncUS, recordBytes        float64
}

func newLayerTimes() *layerTimes {
	return &layerTimes{byAlg: make(map[string][2]float64)}
}

func (t *layerTimes) add(o *layerTimes) {
	t.ops += o.ops
	t.latMS = append(t.latMS, o.latMS...)
	t.op += o.op
	t.httpGet += o.httpGet
	t.submit += o.submit
	t.wait += o.wait
	t.coreRun += o.coreRun
	t.rounds += o.rounds
	t.coreRuns += o.coreRuns
	for k, v := range o.byAlg {
		w := t.byAlg[k]
		t.byAlg[k] = [2]float64{w[0] + v[0], w[1] + v[1]}
	}
	t.compute += o.compute
	t.merge += o.merge
	t.barrier += o.barrier
	t.uploads += o.uploads
	t.specID += o.specID
	t.decode += o.decode
	t.encode += o.encode
	t.cwrite += o.cwrite
	t.open += o.open
	t.upload += o.upload
	t.uploadBytes += o.uploadBytes
	t.appends += o.appends
	t.appendUS += o.appendUS
	t.syncUS += o.syncUS
	t.recordBytes += o.recordBytes
}

// selfTimes splits the mean operation into layer self times (µs per
// operation) and returns the unattributed remainder. An upload decodes
// twice (for the spec id, then to build), encodes once for the id, and
// writes and maps the container.
func (t *layerTimes) selfTimes() (map[string]float64, float64) {
	n := float64(t.ops)
	per := func(sum float64) float64 { return sum / n }
	engine := per(t.submit + t.wait)
	self := map[string]float64{
		"service.http":   per(t.httpGet),
		"service.engine": engine - per(t.coreRun),
		"service.spec":   per(t.specID - t.decode - t.encode),
		"service.upload": per(t.upload - t.specID - t.decode - t.cwrite - t.open),
		"graph":          per(2*t.decode + t.encode + t.cwrite + t.open),
		"core":           per(t.coreRun - t.rounds),
		"mpc":            per(t.rounds),
	}
	rest := per(t.op)
	for _, v := range self {
		rest -= v
	}
	return self, rest
}

// traceLayers are the layers the attribution splits an operation into.
var traceLayers = []string{"service.http", "service.engine", "service.spec", "service.upload", "graph", "core", "mpc"}

// replayer owns what the replays need beyond the measured server.
type replayer struct {
	t0       time.Time
	measured *server
	shadow   *server
	inputs   map[string]core.Input // spec id -> built instance, for direct runs
	ledger   *ledger.Ledger
	tmp      string
	clients  []*replayClient
}

type replayClient struct {
	sink   roundSink
	spans  []span
	times  *layerTimes
	encBuf bytes.Buffer
}

// newReplayer starts the second engine and runs the workload's warm-up on
// it, builds the generated instances for direct runs and opens a ledger of
// its own. It runs before the traced run's timing starts. The replay
// engine's job history is filled only where the warm-up itself fills it
// (hot-repeat): a full history of executed jobs holds about 180 MB of
// round traces, and the replay engine would double the run's memory for a
// pruning scan that costs a few microseconds per submission on the
// workloads that execute jobs.
func newReplayer(dir string, measured *server, w workload, clients int, t0 time.Time) (*replayer, error) {
	shadow, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	r := &replayer{t0: t0, measured: measured, shadow: shadow, inputs: make(map[string]core.Input)}
	fail := func(err error) (*replayer, error) {
		r.close()
		return nil, err
	}
	if err := w.warm(shadow, clients); err != nil {
		return fail(fmt.Errorf("warming the replay engine: %w", err))
	}
	var specs []service.InstanceSpec
	switch w := w.(type) {
	case *coldMix:
		specs = w.specs
	}
	for _, s := range specs {
		id, err := service.SpecID(s)
		if err != nil {
			return fail(err)
		}
		in, err := service.BuildInstance(s)
		if err != nil {
			return fail(err)
		}
		r.inputs[id] = in
	}
	if r.tmp, err = os.MkdirTemp(dir, "replay-"); err != nil {
		return fail(err)
	}
	store, _, err := ledger.OpenDisk(filepath.Join(r.tmp, "ledger"), ledger.DiskOptions{})
	if err != nil {
		return fail(err)
	}
	if r.ledger, err = ledger.Open(ledger.Options{Store: store}); err != nil {
		store.Close()
		return fail(err)
	}
	for c := 0; c < clients; c++ {
		r.clients = append(r.clients, &replayClient{times: newLayerTimes()})
	}
	return r, nil
}

func (r *replayer) close() {
	if r.ledger != nil {
		r.ledger.Close()
	}
	r.shadow.close()
	if r.tmp != "" {
		os.RemoveAll(r.tmp)
	}
}

// spanRec appends a span and returns its id.
func (c *replayClient) spanRec(r *replayer, trace int64, parent int, name string, start, end time.Time, replay bool) int {
	id := 1
	if n := len(c.spans); n > 0 && c.spans[n-1].Trace == trace {
		id = c.spans[n-1].ID + 1
	}
	c.spans = append(c.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Replay: replay})
	return id
}

// interval is one timed call.
type interval struct{ start, end time.Time }

func (iv interval) us() float64 { return float64(iv.end.Sub(iv.start)) / float64(time.Microsecond) }

// timed runs f and returns when it ran.
func timed(f func() error) (interval, error) {
	start := time.Now()
	err := f()
	return interval{start, time.Now()}, err
}

// replay re-executes operation i, already served over HTTP in
// [start, start+lat), through the narrower entry points, checks that every
// path returns the same result, and records spans and layer times.
func (r *replayer) replay(client int, i int64, start time.Time, lat time.Duration, d opDone) error {
	c := r.clients[client]
	t := c.times
	root := c.spanRec(r, i, 0, "op", start, start.Add(lat), false)
	opUS := float64(lat) / float64(time.Microsecond)
	t.ops++
	t.latMS = append(t.latMS, float64(lat)/float64(time.Millisecond))
	t.op += opUS

	// The same reply again over the same HTTP stack, without the job.
	get, err := timed(func() error {
		ex, err := r.measured.do("GET", "/v1/jobs/"+d.job.id, nil, 0)
		if err == nil && ex.status != 200 {
			err = fmt.Errorf("HTTP %d", ex.status)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("replay %d: GET job %s: %w", i, d.job.id, err)
	}
	c.spanRec(r, i, root, "service.http.get", get.start, get.end, true)
	t.httpGet += get.us()

	var sub struct {
		service.JobRequest
		Wait bool `json:"wait"`
	}
	if err := json.Unmarshal(d.jobBody, &sub); err != nil {
		return fmt.Errorf("replay %d: job body: %w", i, err)
	}
	req := sub.JobRequest
	var in core.Input
	var inputOK bool

	if d.upload != nil {
		body := d.upload.bytes()
		var g, mg *graph.Graph
		var id string
		spec, err := timed(func() (err error) {
			id, err = service.SpecID(service.InstanceSpec{Type: "upload", Data: body})
			return err
		})
		if err != nil || id != d.uploadID {
			return fmt.Errorf("replay %d: SpecID = %q, %v; server said %s", i, id, err, d.uploadID)
		}
		dec, err := timed(func() (err error) {
			g, err = graph.DecodeAuto(bytes.NewReader(body))
			return err
		})
		if err != nil {
			return fmt.Errorf("replay %d: decode: %w", i, err)
		}
		c.encBuf.Reset()
		enc, err := timed(func() error { return graph.Encode(&c.encBuf, g) })
		if err != nil {
			return fmt.Errorf("replay %d: encode: %w", i, err)
		}
		path := filepath.Join(r.tmp, fmt.Sprintf("client-%d.mrg", client))
		write, err := timed(func() error { return graph.WriteContainerFile(path, g) })
		if err != nil {
			return fmt.Errorf("replay %d: container write: %w", i, err)
		}
		open, err := timed(func() (err error) {
			mg, err = graph.OpenMapped(path)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay %d: open mapped: %w", i, err)
		}
		defer func() {
			mg.Close()
			os.Remove(path)
		}()
		in, inputOK = core.Input{Graph: mg}, true
		up, err := timed(func() (err error) {
			id, _, err = r.shadow.engine.Upload(body)
			return err
		})
		if err != nil || id != d.uploadID {
			return fmt.Errorf("replay %d: Engine.Upload = %q, %v; server said %s", i, id, err, d.uploadID)
		}
		ups := c.spanRec(r, i, root, "service.upload", up.start, up.end, true)
		sps := c.spanRec(r, i, ups, "service.spec.id", spec.start, spec.end, true)
		c.spanRec(r, i, sps, "graph.decode", dec.start, dec.end, true)
		c.spanRec(r, i, sps, "graph.encode", enc.start, enc.end, true)
		c.spanRec(r, i, ups, "graph.container_write", write.start, write.end, true)
		c.spanRec(r, i, ups, "graph.open_mapped", open.start, open.end, true)

		t.uploads++
		t.specID += spec.us()
		t.decode += dec.us()
		t.encode += enc.us()
		t.cwrite += write.us()
		t.open += open.us()
		t.upload += up.us()
		t.uploadBytes += float64(len(body))
	} else if id, err := service.SpecID(req.Instance); err == nil {
		in, inputOK = r.inputs[id]
	}

	// Engine.Submit and Job.Wait on the replay engine.
	var j *service.Job
	submit, err := timed(func() (err error) {
		j, err = r.shadow.engine.Submit(req)
		return err
	})
	if err != nil {
		return fmt.Errorf("replay %d: Submit: %w", i, err)
	}
	wait, _ := timed(func() error { j.Wait(); return nil })
	v := r.shadow.engine.Snapshot(j)
	if v.Status != service.StatusDone || v.Result == nil || v.Source != d.job.source {
		return fmt.Errorf("replay %d: engine job %s %s from %q, HTTP job from %q", i, v.Status, v.Error, v.Source, d.job.source)
	}
	if v.Result.RunResult != d.job.result.RunResult {
		return fmt.Errorf("replay %d: engine result differs from the HTTP result", i)
	}
	eng := c.spanRec(r, i, root, "service.engine", submit.start, wait.end, true)
	c.spanRec(r, i, eng, "service.engine.submit", submit.start, submit.end, false)
	c.spanRec(r, i, eng, "service.engine.wait", wait.start, wait.end, false)
	t.submit += submit.us()
	t.wait += wait.us()

	// The algorithm itself, when this operation executed one.
	if d.job.source == service.SourceRun {
		if !inputOK {
			return fmt.Errorf("replay %d: no local instance for %s", i, req.Alg)
		}
		alg, _ := core.LookupAlgorithm(req.Alg)
		c.sink.rounds = c.sink.rounds[:0]
		p := core.Params{Mu: d.job.result.Mu, Seed: req.Seed, Workers: 1, Sink: &c.sink, TraceLabel: req.Alg}
		var run *core.RunResult
		cr, err := timed(func() (err error) {
			run, err = alg.Run(in, p, req.Args)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay %d: %s: %w", i, req.Alg, err)
		}
		if *run != d.job.result.RunResult {
			return fmt.Errorf("replay %d: direct %s run differs from the served result (model counts %+v vs %+v)",
				i, req.Alg, run.Metrics, d.job.result.Metrics)
		}
		cs := c.spanRec(r, i, eng, "core.run", cr.start, cr.end, true)
		for _, rs := range c.sink.rounds {
			c.spanRec(r, i, cs, "mpc.round", rs.Start, rs.End, false)
			t.rounds += float64(rs.Duration()) / float64(time.Microsecond)
			t.compute += float64(rs.Compute) / float64(time.Microsecond)
			t.merge += float64(rs.Merge) / float64(time.Microsecond)
			t.barrier += float64(rs.Barrier) / float64(time.Microsecond)
		}
		t.coreRuns++
		t.coreRun += cr.us()
		a := t.byAlg[req.Alg]
		t.byAlg[req.Alg] = [2]float64{a[0] + cr.us(), a[1] + 1}
		return r.appendRecord(c, i, root, req, d)
	}
	return nil
}

// appendRecord appends the ledger record the engine writes for an
// executed job and waits for it to be durable.
func (r *replayer) appendRecord(c *replayClient, i int64, root int, req service.JobRequest, d opDone) error {
	resultJSON, err := json.Marshal(d.job.result)
	if err != nil {
		return err
	}
	metricsJSON, err := json.Marshal(d.job.result.Metrics)
	if err != nil {
		return err
	}
	spec := req.Instance
	payload, err := json.Marshal(struct {
		Spec   service.InstanceSpec `json:"spec"`
		Result json.RawMessage      `json:"result"`
	}{spec, resultJSON})
	if err != nil {
		return err
	}
	key := fmt.Sprintf("inst=%s alg=%s seed=%d", d.job.result.InstanceID, req.Alg, req.Seed)
	ta := time.Now()
	r.ledger.Append(key, payload, ledger.HashBytes(resultJSON), ledger.HashBytes(metricsJSON))
	tsync := time.Now()
	r.ledger.Sync()
	te := time.Now()
	if r.ledger.Degraded() {
		return fmt.Errorf("replay %d: replay ledger degraded", i)
	}
	c.spanRec(r, i, root, "ledger.append", ta, tsync, true)
	c.spanRec(r, i, root, "ledger.sync", tsync, te, true)
	t := c.times
	t.appends++
	t.appendUS += float64(tsync.Sub(ta)) / float64(time.Microsecond)
	t.syncUS += float64(te.Sub(tsync)) / float64(time.Microsecond)
	t.recordBytes += float64(len(key) + len(payload))
	return nil
}

// merged sums every client's layer times.
func (r *replayer) merged() *layerTimes {
	all := newLayerTimes()
	for _, c := range r.clients {
		all.add(c.times)
	}
	return all
}

// writeSpans writes every recorded span, one JSON object per line.
func (r *replayer) writeSpans(path string) error {
	var spans []span
	for _, c := range r.clients {
		spans = append(spans, c.spans...)
	}
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Trace < spans[b].Trace })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
