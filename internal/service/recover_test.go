package service

// Graceful-degradation and abandonment tests for the engine: transport
// failure falls back to bit-identical unsharded execution (counted),
// abandoning a job cancels its flight, and chaos injected under the
// service still yields bit-identical results.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mpc"
)

// TestUnknownTransportPanics: a transport name mpc.TransportByName rejects
// stops NewEngine before any worker starts.
func TestUnknownTransportPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"udp"`) {
			t.Fatalf("NewEngine with Transport \"udp\": recovered %v, want a panic naming it", r)
		}
	}()
	NewEngine(Config{Pool: 1, Shards: 2, Transport: "udp"})
}

// TestFallbackUnsharded: a sharded engine whose transport cannot come up
// degrades to unsharded in-process execution with a bit-identical result,
// and counts the fallback.
func TestFallbackUnsharded(t *testing.T) {
	req := JobRequest{
		Instance: InstanceSpec{Type: "density", N: 150, C: 0.3, Seed: 7},
		Alg:      "matching", Seed: 7,
	}
	want := directRun(t, req)

	broken := func(k int) ([]mpc.Transport, error) {
		return nil, fmt.Errorf("%w: injected fabric outage", mpc.ErrTransport)
	}
	e := NewEngine(Config{Pool: 1, Shards: 2, transportFactory: broken})
	defer e.Close()
	v := finished(t, e, mustSubmit(t, e, req))
	assertSameResult(t, "fallback", v.Result, want)
	if got := e.metrics.counter("fallback_unsharded_total"); got != 1 {
		t.Errorf("fallback_unsharded_total = %d, want 1", got)
	}

	// With -no-fallback the same outage fails the job instead.
	e2 := NewEngine(Config{Pool: 1, Shards: 2, transportFactory: broken, NoFallback: true})
	defer e2.Close()
	j := mustSubmit(t, e2, req)
	j.Wait()
	if v := e2.Snapshot(j); v.Status != StatusFailed || !strings.Contains(v.Error, "injected fabric outage") {
		t.Errorf("no-fallback job: status %s error %q, want failed with the transport error", v.Status, v.Error)
	}
	if got := e2.metrics.counter("fallback_unsharded_total"); got != 0 {
		t.Errorf("no-fallback engine counted %d fallbacks", got)
	}
}

// TestAbandonCancelsFlight: abandoning a queued job's only waiter cancels
// the flight — the job fails with the context error instead of burning the
// pool — while a job with a surviving waiter keeps running.
func TestAbandonCancelsFlight(t *testing.T) {
	e := NewEngine(Config{Pool: 1})
	defer e.Close()
	// Occupy the single worker long enough that the jobs below stay queued
	// while we abandon.
	blocker := mustSubmit(t, e, JobRequest{
		Instance: InstanceSpec{Type: "density", N: 20000, C: 0.3, Seed: 42},
		Alg:      "luby", Seed: 42,
	})

	// Two identical submissions batch into one flight: abandoning one
	// waiter must not cancel the other's work.
	shared := JobRequest{
		Instance: InstanceSpec{Type: "density", N: 90, C: 0.3, Seed: 5},
		Alg:      "mis", Seed: 5,
	}
	lead := mustSubmit(t, e, shared)
	follow := mustSubmit(t, e, shared)
	e.Abandon(follow)

	// A job whose sole waiter leaves is canceled.
	doomed := mustSubmit(t, e, JobRequest{
		Instance: InstanceSpec{Type: "density", N: 80, C: 0.3, Seed: 21},
		Alg:      "mis", Seed: 21,
	})
	e.Abandon(doomed)

	blocker.Wait()
	lead.Wait()
	doomed.Wait()
	if v := e.Snapshot(lead); v.Status != StatusDone {
		t.Errorf("shared flight with a surviving waiter: status %s error %q", v.Status, v.Error)
	}
	if v := e.Snapshot(doomed); v.Status != StatusFailed || !strings.Contains(v.Error, "canceled") {
		t.Errorf("abandoned job: status %s error %q, want failed with a canceled error", v.Status, v.Error)
	}
	if got := e.metrics.counter("jobs_abandoned_total"); got != 2 {
		t.Errorf("jobs_abandoned_total = %d, want 2", got)
	}
	// Abandoning a finished job is a no-op.
	e.Abandon(blocker)
	if v := e.Snapshot(blocker); v.Status != StatusDone {
		t.Errorf("abandon after completion changed status to %s", v.Status)
	}
}

// TestServiceChaosDeterminism: chaos injected under the service's sharded
// TCP transport — every cross-shard batch sent twice — is healed by the
// wire dedup and the served result stays bit-identical to the direct run.
// (DupEvery is 1 because this workload's sparse traffic makes only a
// handful of cross-shard sends; a sparser schedule could miss all of them.)
func TestServiceChaosDeterminism(t *testing.T) {
	req := JobRequest{
		Instance: InstanceSpec{Type: "density", N: 150, C: 0.3, Seed: 7},
		Alg:      "matching", Seed: 7,
	}
	want := directRun(t, req)
	e := NewEngine(Config{
		Pool: 1, Shards: 2, Transport: "tcp",
		TransportOpts: mpc.TransportOpts{BarrierTimeout: 30 * time.Second},
		Chaos:         mpc.ChaosSpec{Seed: 7, DupEvery: 1},
	})
	defer e.Close()
	v := finished(t, e, mustSubmit(t, e, req))
	assertSameResult(t, "chaos-tcp", v.Result, want)
	if _, dups, _, _ := mpc.ChaosTotals(); dups == 0 {
		t.Error("chaos schedule injected no duplicate frames; the test proved nothing")
	}
	if got := e.metrics.counter("fallback_unsharded_total"); got != 0 {
		t.Errorf("healable chaos forced %d unsharded fallbacks", got)
	}
}

// TestMetricsRecoveryLines: /metrics exports the transport-recovery and
// chaos counters alongside the engine's own fallback and abandonment
// counts, even when all are zero.
func TestMetricsRecoveryLines(t *testing.T) {
	e := NewEngine(Config{Pool: 1})
	defer e.Close()
	var buf bytes.Buffer
	e.metrics.WritePlain(&buf)
	text := buf.String()
	for _, want := range []string{
		"mrserve_fallback_unsharded_total 0",
		"mrserve_jobs_abandoned_total 0",
		"mrserve_transport_retries_total ",
		"mrserve_transport_reconnects_total ",
		"mrserve_worker_respawns_total ",
		"mrserve_chaos_faults_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
