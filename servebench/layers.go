package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/servebench/stats"
)

// tracedStart offsets the traced phase's operation indices past the
// untraced phase's.
const tracedStart = 1 << 32

// measureTraced runs the traced run: an untraced phase over the first two
// fifths of the time, which gives the server-side ratios, the ledger and
// GC figures and the baseline for the tracing overhead, then a traced
// phase in which every operation is replayed layer by layer.
func (b *bench) measureTraced(d time.Duration) (result, error) {
	res := result{Metrics: map[string]value{}}
	rp, err := newReplayer(b.dir, b.srv, b.w, b.clients, time.Now())
	if err != nil {
		return res, err
	}
	b.replayer = rp

	c0, err := b.srv.counters()
	if err != nil {
		return res, err
	}
	h0, err := b.srv.ledgerHead()
	if err != nil {
		return res, err
	}
	ta, ws := closedLoop(b.clients, 0, 1, d*2/5, b.httpOp)
	c1, err := b.srv.counters()
	if err != nil {
		return res, err
	}
	h1, err := b.srv.ledgerHead()
	if err != nil {
		return res, err
	}
	tb, _ := closedLoop(b.clients, tracedStart, 1, d*3/5, func(c int, i int64) (opDone, time.Duration, error) {
		start := time.Now()
		od, err := b.w.op(b.srv, i)
		lat := time.Since(start)
		if err == nil {
			err = rp.replay(c, i, start, lat, od)
		}
		return od, lat, err
	})
	var all tally
	all.add(&ta)
	all.add(&tb)
	res.Attempted, res.Failed = all.attempted, all.failed
	res.Correct = all.failed == 0
	if err := b.failures(all); err != nil {
		return res, err
	}
	lt := rp.merged()
	b.samples = int(lt.ops)
	if lt.ops == 0 || len(ta.latMS) == 0 {
		return res, fmt.Errorf("traced run completed no operations; raise --seconds")
	}
	spans := filepath.Join(b.dir, "trace-"+b.name+".jsonl")
	if err := rp.writeSpans(spans); err != nil {
		return res, err
	}

	m := res.Metrics
	put := func(name, unit string, v float64) { m[name] = value{v, unit} }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	delta := func(name string) float64 { return c1["mrserve_"+name] - c0["mrserve_"+name] }
	ops := float64(lt.ops)
	opsA := float64(len(ta.latMS))
	mean := func(sum float64, n int64) float64 { return ratio(sum, float64(n)) }

	self, unattributed := lt.selfTimes()
	per := func(sum float64) float64 { return sum / ops }

	// service
	put("service.http.overhead_us", "us", per(lt.op-lt.upload-lt.submit-lt.wait))
	put("service.http.req_bytes", "B", ratio(float64(ta.reqBytes), opsA))
	put("service.http.resp_bytes", "B", ratio(float64(ta.respBytes), opsA))
	put("service.engine.submit_us", "us", per(lt.submit))
	put("service.engine.wait_us", "us", per(lt.wait))
	put("service.engine.queue_us", "us", per(lt.wait-lt.coreRun))
	submitted := delta("jobs_submitted_total")
	put("service.store.hit_ratio", "ratio", ratio(delta("jobs_cache_hits_total"), submitted))
	put("service.batcher.coalesce_ratio", "ratio", ratio(delta("jobs_coalesced_total"), submitted))
	requests := delta("instance_cache_requests_total")
	// Uploads insert the instance they build; only builds and remaps on
	// the job path are misses.
	uploads := 0.0
	if _, ok := b.w.(*ingest); ok {
		uploads = opsA
	}
	misses := delta("instances_built_total") - uploads + delta("instances_remapped_total")
	put("service.instances.hit_ratio", "ratio", ratio(requests-misses, requests))
	put("service.instances.evicted", "count/op", ratio(delta("instances_evicted_total"), opsA))
	put("service.spec.id_us", "us", mean(lt.specID, lt.uploads))
	put("service.upload_ms", "ms", mean(lt.upload, lt.uploads)/1e3)

	// core and mpc
	put("core.run_ms", "ms", mean(lt.coreRun, lt.coreRuns)/1e3)
	put("core.self_ms", "ms", mean(lt.coreRun-lt.rounds, lt.coreRuns)/1e3)
	for _, a := range algorithmNames() {
		v := lt.byAlg[a]
		put("core.run_ms."+a, "ms", ratio(v[0], v[1])/1e3)
	}
	put("mpc.compute_us_per_op", "us", per(lt.compute))
	put("mpc.merge_us_per_op", "us", per(lt.merge))
	put("mpc.barrier_us_per_op", "us", per(lt.barrier))
	okOps := float64(len(all.latMS))
	put("mpc.rounds_per_op", "count", ratio(float64(all.rounds), okOps))
	put("mpc.words_per_op", "count", ratio(float64(all.words), okOps))
	put("mpc.messages_per_op", "count", ratio(float64(all.messages), okOps))
	put("mpc.active_per_round", "count", ratio(float64(all.actives), float64(all.rounds)))

	// graph
	put("graph.decode_ms", "ms", mean(lt.decode, lt.uploads)/1e3)
	put("graph.encode_ms", "ms", mean(lt.encode, lt.uploads)/1e3)
	put("graph.container_write_ms", "ms", mean(lt.cwrite, lt.uploads)/1e3)
	put("graph.open_mapped_us", "us", mean(lt.open, lt.uploads))
	put("graph.upload_bytes", "B", mean(lt.uploadBytes, lt.uploads))

	// ledger
	put("ledger.append_us", "us", mean(lt.appendUS, lt.appends))
	put("ledger.sync_ms", "ms", mean(lt.syncUS, lt.appends)/1e3)
	put("ledger.record_bytes", "B", mean(lt.recordBytes, lt.appends))
	put("ledger.records_per_op", "count", ratio(float64(h1.Seq-h0.Seq), opsA))

	// Go runtime, over the untraced phase
	w := ws[0]
	put("go.gc_cpu_frac", "ratio", ratio(w.gcCPU, w.cpuS))
	put("go.gc_cycles_per_kop", "count", ratio(1000*w.gcCycles, w.ops))

	// attribution
	put("trace.samples", "count", ops)
	put("trace.op_us", "us", per(lt.op))
	for _, l := range traceLayers {
		put("trace.self_us."+l, "us", self[l])
	}
	put("trace.unattributed_us", "us", unattributed)
	base := stats.Median(ta.latMS)
	put("trace.overhead_pct", "%", 100*(stats.Median(lt.latMS)/base-1))

	b.report("peak RSS %.0f MiB (both engines)", maxRSSMB())
	b.report("untraced phase: %d operations, p50 %.4f ms; traced phase: %d operations, p50 %.4f ms",
		len(ta.latMS), base, lt.ops, stats.Median(lt.latMS))
	b.report("ratios: store hits %.0f of %.0f submitted, coalesced %.0f, instance requests %.0f with %.0f misses",
		delta("jobs_cache_hits_total"), submitted, delta("jobs_coalesced_total"), requests, misses)
	opUS := per(lt.op)
	b.report("attribution of the mean %.1f us operation (spans in %s):", opUS, spans)
	for _, l := range traceLayers {
		b.report("  %-16s %10.1f us %5.1f%%", l, self[l], 100*self[l]/opUS)
	}
	b.report("  %-16s %10.1f us %5.1f%%", "unattributed", unattributed, 100*unattributed/opUS)
	if len(lt.byAlg) > 1 {
		var total float64
		names := make([]string, 0, len(lt.byAlg))
		for a, v := range lt.byAlg {
			total += v[0]
			names = append(names, a)
		}
		sort.Strings(names)
		b.report("share of algorithm time:")
		for _, a := range names {
			v := lt.byAlg[a]
			b.report("  %-16s %5.1f%% (%.0f runs, mean %.2f ms)", a, 100*v[0]/total, v[1], v[0]/v[1]/1e3)
		}
	}
	return res, nil
}
