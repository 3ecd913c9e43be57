package mpc

// Transport tuning and the deterministic retry/backoff schedule shared by
// the TCP transport's dial, reconnect, and failure-detection paths.

import (
	"sync/atomic"
	"time"
)

// TransportOpts tunes a transport node: deadlines, the dial retry budget,
// heartbeat-based failure detection, and the recovery machinery (wire log +
// reconnect handshake). The zero value reproduces the pre-recovery
// behavior: single dial attempt semantics via the default retry budget, no
// heartbeats, no recovery — a connection failure fails the round.
type TransportOpts struct {
	// BarrierTimeout bounds how long Receive waits for the peers'
	// end-of-round markers before failing the round; 0 means 2 minutes. A
	// lost peer or a desynchronized barrier therefore surfaces as an error
	// from Round, never a hang.
	BarrierTimeout time.Duration
	// DialTimeout bounds one dial-plus-hello attempt; 0 means 10 seconds.
	DialTimeout time.Duration
	// DialRetries is the number of additional dial attempts after the
	// first, spaced by the backoff schedule; 0 means 3, negative means
	// none.
	DialRetries int
	// RetryBase is the first backoff delay; 0 means 50ms. Successive
	// delays double, capped at RetryMax, each scaled by a deterministic
	// jitter in [0.5, 1.0) derived from RetrySeed.
	RetryBase time.Duration
	// RetryMax caps the backoff delay; 0 means 2 seconds.
	RetryMax time.Duration
	// RetrySeed seeds the backoff jitter. 0 derives a seed from the shard
	// pair so fleet members don't thunder in phase.
	RetrySeed uint64
	// HeartbeatInterval, when positive, makes the node emit a heartbeat
	// frame on every connection idle for that long, so silence becomes a
	// detectable signal. 0 disables heartbeats.
	HeartbeatInterval time.Duration
	// PeerDeadAfter, when positive, declares a peer dead when nothing —
	// heartbeat or traffic — arrived on its connection for that long while
	// the round still owes its end-of-round marker. Detection is then
	// bounded by PeerDeadAfter instead of BarrierTimeout. 0 disables
	// silence detection (detection falls back to connection errors and the
	// barrier timeout).
	PeerDeadAfter time.Duration
	// Recover enables fault tolerance: outbound frames are retained in a
	// wire log (last WireLogRounds rounds), connection failures mark the
	// peer down instead of failing the round, the original dialer redials
	// with backoff, and reconnecting peers (including respawned workers,
	// via ReconnectTCP) are caught up by deterministic replay of the
	// logged frames. Off by default: without it any connection failure
	// poisons the round, as before.
	Recover bool
	// WireLogRounds is W, the number of trailing rounds of outbound frames
	// the wire log retains for replay; 0 means 8. Lockstep execution keeps
	// peers within one round of each other, so W >= 2 suffices; the slack
	// covers respawn latency.
	WireLogRounds int
	// WireLogMemBytes bounds the wire log's in-memory frame bytes; older
	// retained rounds beyond it spill to WireLogDir. 0 means 64 MiB.
	WireLogMemBytes int64
	// WireLogDir is where spilled wire-log rounds go; "" means the OS temp
	// directory.
	WireLogDir string
}

func (o TransportOpts) barrierTimeout() time.Duration {
	if o.BarrierTimeout > 0 {
		return o.BarrierTimeout
	}
	return 2 * time.Minute
}

func (o TransportOpts) dialTimeout() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	return 10 * time.Second
}

func (o TransportOpts) dialRetries() int {
	if o.DialRetries == 0 {
		return 3
	}
	if o.DialRetries < 0 {
		return 0
	}
	return o.DialRetries
}

func (o TransportOpts) retryBase() time.Duration {
	if o.RetryBase > 0 {
		return o.RetryBase
	}
	return 50 * time.Millisecond
}

func (o TransportOpts) retryMax() time.Duration {
	if o.RetryMax > 0 {
		return o.RetryMax
	}
	return 2 * time.Second
}

func (o TransportOpts) peerDeadAfter() time.Duration {
	if o.PeerDeadAfter > 0 {
		return o.PeerDeadAfter
	}
	if o.HeartbeatInterval > 0 {
		return 3 * o.HeartbeatInterval
	}
	return 0
}

func (o TransportOpts) wireLogRounds() int {
	if o.WireLogRounds > 0 {
		return o.WireLogRounds
	}
	return 8
}

func (o TransportOpts) wireLogMemBytes() int64 {
	if o.WireLogMemBytes > 0 {
		return o.WireLogMemBytes
	}
	return 64 << 20
}

// splitmix64 is the SplitMix64 output function: a bijective avalanche mix,
// used to derive deterministic jitter from (seed, attempt).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffDelay returns the delay before retry attempt `attempt` (1-based:
// the delay between the first failure and the second try is attempt 1).
// The schedule is exponential from base, capped at max, with each step
// scaled by a jitter factor in [0.5, 1.0) that is a pure function of
// (seed, attempt) — deterministic, so tests and replayed recoveries see
// identical timing decisions.
func backoffDelay(attempt int, base, max time.Duration, seed uint64) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max {
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	// Jitter scales into [0.5, 1.0): half the nominal delay is always kept,
	// so the schedule stays monotone in expectation while decorrelating
	// concurrent retries.
	frac := float64(splitmix64(seed^uint64(attempt))>>11) / float64(1<<53)
	return time.Duration(float64(d) * (0.5 + 0.5*frac))
}

// BackoffDelay is the exported form of backoffDelay: the deterministic
// jittered exponential retry schedule the TCP transport uses for dials and
// reconnects, reused by other subsystems (the durable job ledger retries
// transient IO errors on the same schedule before declaring itself
// degraded). attempt is 1-based; the returned delay is the exponential
// step from base capped at max, scaled by a jitter factor in [0.5, 1.0)
// that is a pure function of (seed, attempt).
func BackoffDelay(attempt int, base, max time.Duration, seed uint64) time.Duration {
	return backoffDelay(attempt, base, max, seed)
}

// Process-wide recovery counters, exported alongside TransportTotals for
// the service layer's /metrics.
var (
	transportRetriesTotal    atomic.Uint64 // dial attempts beyond the first
	transportReconnectsTotal atomic.Uint64 // successful connection swap-ins
	workerRespawnsTotal      atomic.Uint64 // ReconnectTCP rejoins + supervisor respawns
	staleFramesDropped       atomic.Uint64 // duplicate/stale frames discarded by dedup
)

// RecoveryTotals reports process-wide fault-recovery activity: transport
// dial retries, successful reconnects (connection swap-ins after a
// failure), and worker respawns (mesh rejoins via ReconnectTCP plus
// respawns recorded by a supervisor through AddWorkerRespawns).
func RecoveryTotals() (retries, reconnects, respawns uint64) {
	return transportRetriesTotal.Load(), transportReconnectsTotal.Load(), workerRespawnsTotal.Load()
}

// AddWorkerRespawns records n worker respawns performed by an external
// supervisor (cmd/mrshard), so fleet-level recovery shows up in the same
// process-wide totals the in-process paths use.
func AddWorkerRespawns(n uint64) { workerRespawnsTotal.Add(n) }
