package mpc

// This file implements sharded cluster execution: the machines of one
// logical Cluster are partitioned contiguously across K shards, each
// shard's RoundFuncs run through the ordinary executor, and cross-shard
// columns travel through a Transport instead of being handed directly to
// the destination inbox. Everything observable — delivery order, metrics,
// traces — is bit-identical to a single-process run.
//
// # Determinism
//
// The single-process merge delivers each destination's columns in
// ascending sender order. Sharding preserves that order structurally: the
// partition is contiguous (machines of shard u all precede machines of
// shard u+1), each batch is built by the same ascending walk over the
// sender machines, and received batches are replayed in ascending source
// shard order. A destination's inbox is therefore assembled as
//
//	[wire columns from shards below mine] ++ [local columns] ++
//	[wire columns from shards above mine]
//
// which is exactly ascending sender order again. Word and message totals
// are accumulated per shard during the walk and reduced into the cluster's
// Metrics — the coordinator reduction — and sum to the single-process
// totals because every column is counted exactly once, at its sender.
//
// # Ownership of processes
//
// The engine supports two deployment shapes through one rule set. In
// single-process sharding (mrserve -shards K, benchmarks) the factory
// returns all K endpoints, every shard is "owned", and cross-shard traffic
// genuinely travels through the transport while intra-shard traffic takes
// the ordinary zero-copy path. In multi-process replicated execution
// (cmd/mrshard) every process runs the whole deterministic driver — the
// round functions of all machines — but owns exactly one shard: only the
// owned shard's outbound columns are shipped, inbound wire columns replace
// the locally computed (bit-identical) copies for owned destinations, and
// the local copies of unowned pairs stand in for traffic this process will
// never see on the wire. Per (sender shard u, destination shard t):
//
//	ship    = owned[u] && u != t      (authoritative cross-shard traffic)
//	local   = u == t  || !owned[t]    (delivered from the local outbox)
//	discard = !ship && !local         (wire copy is authoritative)
//
// # Arming
//
// Self-armed machines (Cluster.Arm from inside a RoundFunc) propagate as a
// tiny control column on the end-of-round marker: each shard's marker
// carries the machine ids its RoundFuncs armed, and receivers enqueue them
// exactly as the local merge does. Deduplication via the cluster's armed
// bitmap makes local and wire application commute, so sparse schedules
// stay identical across process counts.

import (
	"fmt"
	"time"
)

// resumable is implemented by transports whose node rejoined an established
// mesh after a crash (ReconnectTCP): rounds before the resume point are
// re-executed detached — purely locally, no wire activity — because the
// peers already consumed them, and the engine reattaches to the wire
// exactly at the resume round while peers replay what this process missed.
type resumable interface {
	// DetachedRound reports whether cluster-relative round seq predates the
	// resume point.
	DetachedRound(seq uint32) bool
	// NoteDetachedRound records a locally-replayed round so the transport's
	// sequence tracking stays aligned with the wire.
	NoteDetachedRound(seq uint32)
}

// shardEngine is the sharded-execution state of a Cluster. It exists only
// when the effective shard count is at least 2.
type shardEngine struct {
	c       *Cluster
	k       int     // effective shard count, in [2, M]
	bounds  []int   // k+1 partition bounds; shard s holds [bounds[s], bounds[s+1])
	shardOf []int32 // machine -> shard
	eps     []Transport
	epOf    []int  // shard -> index into eps, -1 if not owned by this process
	owned   []bool // shard -> this process ships its traffic
	seq     uint32 // rounds exchanged so far
	broken  error  // first transport error; poisons subsequent rounds

	// res is set when this process's single endpoint supports detached
	// replay (a respawned worker); detached flags the round in flight as
	// predating the resume point, which turns off shipping entirely —
	// every column is delivered locally, as on a pure replica.
	res      resumable
	detached bool

	// Per-round scratch, reused so a steady-state round allocates little.
	bat        [][]*Batch  // [src shard][dst shard] outbound batches
	shardArmed [][]int32   // [shard] self-armed machines collected in the walk
	words      []int64     // [shard] words sent this round
	msgs       []int64     // [shard] records sent this round
	wirePre    [][]segment // [machine] wire columns from shards below the dest's
	wirePost   [][]segment // [machine] wire columns from shards above the dest's

	// Trace-only state (nil/zero unless the cluster has a Config.Sink):
	// wall-clock of the round's Phase B wire exchange, whether that round
	// replayed detached, and the wire words shipped per destination shard.
	// Strictly observational — never read by the deterministic round path.
	phaseExchange time.Duration
	lastDetached  bool
	traceWire     []int64
}

// effectiveShards returns the shard count a config actually runs with: K
// clamped to the machine count, and 1 (unsharded) unless at least 2.
func effectiveShards(cfg Config) int {
	k := cfg.Shards
	if k > cfg.Machines {
		k = cfg.Machines
	}
	if k < 2 {
		return 1
	}
	return k
}

// newShardEngine builds the sharded-execution state for a cluster, calling
// the transport factory (in-memory by default). Returns nil if the config
// resolves to unsharded execution.
func newShardEngine(c *Cluster, cfg Config) (*shardEngine, error) {
	k := effectiveShards(cfg)
	if k < 2 {
		return nil, nil
	}
	factory := cfg.Transport
	if factory == nil {
		factory = NewMemGroup
	}
	eps, err := factory(k)
	if err != nil {
		return nil, fmt.Errorf("mpc: transport factory for %d shards: %w", k, err)
	}
	M := cfg.Machines
	sc := &shardEngine{
		c:          c,
		k:          k,
		bounds:     make([]int, k+1),
		shardOf:    make([]int32, M),
		eps:        eps,
		epOf:       make([]int, k),
		owned:      make([]bool, k),
		bat:        make([][]*Batch, k),
		shardArmed: make([][]int32, k),
		words:      make([]int64, k),
		msgs:       make([]int64, k),
		wirePre:    make([][]segment, M),
		wirePost:   make([][]segment, M),
	}
	if cfg.Sink != nil {
		sc.traceWire = make([]int64, k)
	}
	for s := 0; s <= k; s++ {
		sc.bounds[s] = s * M / k
	}
	for s := 0; s < k; s++ {
		sc.epOf[s] = -1
		sc.bat[s] = make([]*Batch, k)
		for m := sc.bounds[s]; m < sc.bounds[s+1]; m++ {
			sc.shardOf[m] = int32(s)
		}
	}
	for i, ep := range eps {
		if ep.Shards() != k {
			sc.closeEndpoints()
			return nil, fmt.Errorf("mpc: transport endpoint %d built for %d shards, cluster runs %d", i, ep.Shards(), k)
		}
		s := ep.Shard()
		if s < 0 || s >= k {
			sc.closeEndpoints()
			return nil, fmt.Errorf("mpc: transport endpoint %d speaks for invalid shard %d (K=%d)", i, s, k)
		}
		if sc.owned[s] {
			sc.closeEndpoints()
			return nil, fmt.Errorf("mpc: duplicate transport endpoint for shard %d", s)
		}
		sc.owned[s] = true
		sc.epOf[s] = i
	}
	// A multi-process worker owns exactly one endpoint; if its node rejoined
	// the mesh after a crash, rounds before the resume point replay detached.
	if len(eps) == 1 {
		if r, ok := eps[0].(resumable); ok {
			sc.res = r
		}
	}
	return sc, nil
}

// closeEndpoints closes every transport endpoint. Idempotent through the
// endpoints' own idempotency.
func (sc *shardEngine) closeEndpoints() {
	for _, ep := range sc.eps {
		_ = ep.Close()
	}
}

// execute runs f over the scheduled machines shard by shard through the
// cluster's executor — the per-shard batches mirror how a fleet schedules
// the round, and change nothing observable.
func (sc *shardEngine) execute(f RoundFunc, run []int, sparse bool) {
	c := sc.c
	if sparse {
		lo := 0
		for s := 0; s < sc.k; s++ {
			hi := lo
			for hi < len(run) && run[hi] < sc.bounds[s+1] {
				hi++
			}
			if hi > lo {
				sub := run[lo:hi]
				c.exec.Execute(len(sub), func(i int) {
					m := sub[i]
					f(m, &c.inbox[m], &c.outboxes[m])
				})
			}
			lo = hi
		}
		return
	}
	for s := 0; s < sc.k; s++ {
		lo, hi := sc.bounds[s], sc.bounds[s+1]
		c.exec.Execute(hi-lo, func(i int) {
			m := lo + i
			f(m, &c.inbox[m], &c.outboxes[m])
		})
	}
}

// mergeOne classifies one sender machine's outbox: words and messages are
// charged to its shard, each destination column is shipped, delivered
// locally, or discarded per the ownership rules, and self-armed machines
// are collected for the control column.
func (sc *shardEngine) mergeOne(m int) {
	c := sc.c
	o := &c.outboxes[m]
	if o.cur != nil {
		panic(fmt.Sprintf("mpc: machine %d ended the round with an open record (Begin without End)", m))
	}
	s := int(sc.shardOf[m])
	sc.words[s] += int64(o.words)
	sc.msgs[s] += int64(o.count)
	for _, dest := range o.dests {
		t := int(sc.shardOf[dest])
		col := o.byDest[dest]
		ship := !sc.detached && sc.owned[s] && t != s
		local := s == t || !sc.owned[t] || sc.detached
		if ship && sc.traceWire != nil {
			sc.traceWire[t] += int64(col.words)
		}
		if ship {
			wcol := col
			if local && sc.eps[sc.epOf[s]].Retains() {
				// The column must live in a local inbox AND be owned by the
				// retaining transport: hand the transport a copy.
				wcol = cloneColumn(col)
			}
			b := sc.bat[s][t]
			if b == nil {
				b = &Batch{Src: s, Dst: t}
				sc.bat[s][t] = b
			}
			b.add(m, dest, wcol, local)
		}
		switch {
		case local:
			if len(c.senders[dest]) == 0 {
				c.recvNxt = append(c.recvNxt, dest)
			}
			c.senders[dest] = append(c.senders[dest], m)
		case !ship:
			// Replicated execution: the owner's wire copy is authoritative;
			// this locally computed duplicate goes straight back to the pool.
			putColumn(col)
		}
	}
	if c.armedSelf[m] {
		c.armedSelf[m] = false
		c.enqueueArm(m)
		sc.shardArmed[s] = append(sc.shardArmed[s], int32(m))
	}
}

// merge runs the post-barrier merge of a sharded round: the ascending
// sender walk (building outbound batches), the transport exchange, and the
// ingestion of received columns into the wirePre/wirePost staging used by
// inbox assembly. On error the engine is left broken: the round's state is
// indeterminate and the cluster refuses further rounds.
func (sc *shardEngine) merge(run []int, sparse bool) error {
	c := sc.c
	traced := c.cfg.Sink != nil
	if traced {
		sc.phaseExchange = 0
		for i := range sc.traceWire {
			sc.traceWire[i] = 0
		}
	}

	// A respawned worker replays rounds before its resume point detached:
	// purely local delivery, no wire activity — the peers consumed those
	// rounds long ago and deterministic re-execution rebuilds the state.
	sc.detached = sc.res != nil && sc.res.DetachedRound(sc.seq+1)
	sc.lastDetached = sc.detached

	// Phase A: ascending walk over the machines that ran.
	if sparse {
		for _, m := range run {
			sc.mergeOne(m)
		}
	} else {
		for m := 0; m < c.cfg.Machines; m++ {
			sc.mergeOne(m)
		}
	}
	// Coordinator reduction: per-shard traffic counters fold into the
	// cluster metrics. The sum equals the single-process accumulation
	// because each column is counted once, at its sender.
	for s := 0; s < sc.k; s++ {
		c.metrics.WordsSent += sc.words[s]
		c.metrics.Messages += sc.msgs[s]
		sc.words[s], sc.msgs[s] = 0, 0
	}

	// Phase B: ship batches, flush every owned shard's end-of-round marker
	// (with its armed control column), then collect the peers' exchanges.
	sc.seq++
	seq := sc.seq
	var exchStart time.Time
	if traced {
		exchStart = time.Now()
	}
	if sc.detached {
		// Detached replay: every column was delivered locally in Phase A and
		// arming is already complete (mergeOne enqueued the self-armed
		// machines of all shards — the whole fleet runs locally here), so
		// the round only advances sequence tracking.
		sc.res.NoteDetachedRound(seq)
		for s := range sc.shardArmed {
			sc.shardArmed[s] = sc.shardArmed[s][:0]
		}
		if traced {
			sc.phaseExchange = time.Since(exchStart)
		}
		return nil
	}
	for s := 0; s < sc.k; s++ {
		ei := sc.epOf[s]
		for t := 0; t < sc.k; t++ {
			b := sc.bat[s][t]
			if b == nil {
				continue
			}
			sc.bat[s][t] = nil
			if ei < 0 {
				// Unowned shard (defensive: ship is never set without
				// ownership, so b should not exist).
				b.recycle()
				continue
			}
			ep := sc.eps[ei]
			err := ep.Send(t, b)
			if !ep.Retains() {
				// Encoding transport: the engine keeps ownership; columns
				// not shared with a local inbox go back to the pool.
				for _, bc := range b.cols {
					if !bc.shared {
						putColumn(bc.col)
					}
				}
				b.cols = nil
			} else if err != nil {
				b.recycle() // undelivered; shared columns were cloned
			}
			if err != nil {
				return fmt.Errorf("shard %d -> %d: %w", s, t, err)
			}
		}
	}
	for _, ep := range sc.eps {
		if err := ep.Barrier(seq, sc.shardArmed[ep.Shard()]); err != nil {
			return fmt.Errorf("shard %d barrier: %w", ep.Shard(), err)
		}
	}
	for s := range sc.shardArmed {
		sc.shardArmed[s] = sc.shardArmed[s][:0]
	}
	for _, ep := range sc.eps {
		ex, err := ep.Receive(seq)
		if err != nil {
			return fmt.Errorf("shard %d receive: %w", ep.Shard(), err)
		}
		for _, armed := range ex.Armed {
			for _, am := range armed {
				m := int(am)
				if m < 0 || m >= c.cfg.Machines {
					return fmt.Errorf("shard %d receive: armed machine %d out of range (M=%d)", ep.Shard(), m, c.cfg.Machines)
				}
				if c.cfg.Sparse {
					c.enqueueArm(m)
				}
			}
		}
		for _, b := range ex.Batches {
			if err := sc.ingest(ep.Shard(), b); err != nil {
				return fmt.Errorf("shard %d receive: %w", ep.Shard(), err)
			}
		}
	}
	if traced {
		sc.phaseExchange = time.Since(exchStart)
	}
	return nil
}

// ingest stages one received batch's columns for inbox assembly,
// registering new receivers and validating that every column's endpoints
// lie in the shards the frame claims.
func (sc *shardEngine) ingest(dstShard int, b *Batch) error {
	c := sc.c
	if b.Dst != dstShard {
		return fmt.Errorf("batch from shard %d addressed to shard %d arrived at shard %d", b.Src, b.Dst, dstShard)
	}
	if b.Src < 0 || b.Src >= sc.k || b.Src == dstShard {
		return fmt.Errorf("batch with invalid source shard %d (K=%d)", b.Src, sc.k)
	}
	pre := b.Src < dstShard
	for _, bc := range b.cols {
		from, to := int(bc.from), int(bc.to)
		if from < sc.bounds[b.Src] || from >= sc.bounds[b.Src+1] {
			return fmt.Errorf("batch from shard %d carries column from machine %d outside the shard", b.Src, from)
		}
		if to < sc.bounds[dstShard] || to >= sc.bounds[dstShard+1] {
			return fmt.Errorf("batch for shard %d carries column to machine %d outside the shard", dstShard, to)
		}
		if len(c.senders[to]) == 0 && len(sc.wirePre[to]) == 0 && len(sc.wirePost[to]) == 0 {
			c.recvNxt = append(c.recvNxt, to)
		}
		sg := segment{from: from, col: bc.col}
		if pre {
			sc.wirePre[to] = append(sc.wirePre[to], sg)
		} else {
			sc.wirePost[to] = append(sc.wirePost[to], sg)
		}
	}
	b.cols = nil
	return nil
}
