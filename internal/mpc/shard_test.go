package mpc

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// runShardWorkload drives a structurally rich deterministic workload — a
// dense scatter, a sparse funnel with self-arming, float payloads, a quiet
// round — and returns the per-machine state, metrics, and trace. It is the
// oracle body for the sharding equivalence tests and safe to run off the
// test goroutine (it returns errors instead of failing t).
func runShardWorkload(cfg Config) ([]int64, Metrics, []RoundStat, error) {
	cfg.Trace = true
	c := NewCluster(cfg)
	defer c.Close()
	M := cfg.Machines
	state := make([]int64, M)

	// Round 1: every machine scatters two records.
	c.ArmAll()
	err := c.Round(func(m int, in *Inbox, out *Outbox) {
		out.Begin((m*7 + 1) % M)
		out.Int(int64(m))
		out.Float(float64(m) * 0.5)
		out.End()
		out.SendInts((m+3)%M, int64(m), int64(m*m))
	})
	if err != nil {
		return nil, Metrics{}, nil, fmt.Errorf("scatter round: %w", err)
	}

	// Funnel rounds: receivers fold their traffic toward machine 0; every
	// 8th machine self-arms once more after it first accumulates state.
	for r := 0; r < 6; r++ {
		err := c.Round(func(m int, in *Inbox, out *Outbox) {
			var sum int64
			for rec, ok := in.Next(); ok; rec, ok = in.Next() {
				sum += int64(rec.From)
				for _, v := range rec.Ints {
					sum += v
				}
				for _, f := range rec.Floats {
					sum += int64(f * 2)
				}
			}
			if sum != 0 {
				state[m] += sum
				if m > 0 {
					out.SendInts(m/2, sum)
				}
				if m%8 == 0 {
					c.Arm(m)
				}
			}
		})
		if err != nil {
			return nil, Metrics{}, nil, fmt.Errorf("funnel round %d: %w", r, err)
		}
		c.SetResident(r%M, 10+r)
	}
	if err := c.Quiet(); err != nil {
		return nil, Metrics{}, nil, fmt.Errorf("quiet round: %w", err)
	}
	return state, c.Metrics(), c.Trace(), nil
}

// TestShardedEquivalence is the mpc-level oracle: state, metrics, and
// traces are bit-identical across unsharded execution, K in-memory shards,
// and K TCP-loopback shards, dense and sparse, sequential and pooled.
func TestShardedEquivalence(t *testing.T) {
	for _, M := range []int{1, 2, 5, 33} {
		for _, sparse := range []bool{false, true} {
			base := Config{Machines: M, SpaceCap: 1 << 20, Sparse: sparse}
			wantState, wantMetrics, wantTrace, err := runShardWorkload(base)
			if err != nil {
				t.Fatalf("M=%d sparse=%v unsharded: %v", M, sparse, err)
			}
			variants := []struct {
				name string
				cfg  Config
			}{
				{"mem-k2", Config{Shards: 2}},
				{"mem-k3", Config{Shards: 3}},
				{"mem-k4-pooled", Config{Shards: 4, Workers: 4}},
				{"tcp-k2", Config{Shards: 2, Transport: TCPLoopback(TransportOpts{})}},
				{"tcp-k4-pooled", Config{Shards: 4, Workers: 4, Transport: TCPLoopback(TransportOpts{})}},
			}
			for _, v := range variants {
				cfg := base
				cfg.Shards = v.cfg.Shards
				cfg.Workers = v.cfg.Workers
				cfg.Transport = v.cfg.Transport
				state, metrics, trace, err := runShardWorkload(cfg)
				if err != nil {
					t.Fatalf("M=%d sparse=%v %s: %v", M, sparse, v.name, err)
				}
				if !reflect.DeepEqual(state, wantState) {
					t.Errorf("M=%d sparse=%v %s: state diverged\n got %v\nwant %v", M, sparse, v.name, state, wantState)
				}
				if metrics != wantMetrics {
					t.Errorf("M=%d sparse=%v %s: metrics diverged\n got %+v\nwant %+v", M, sparse, v.name, metrics, wantMetrics)
				}
				if !reflect.DeepEqual(trace, wantTrace) {
					t.Errorf("M=%d sparse=%v %s: trace diverged\n got %v\nwant %v", M, sparse, v.name, trace, wantTrace)
				}
			}
		}
	}
}

// TestReplicatedShardingLockstep runs K full replicas of the workload on K
// goroutines, each owning exactly one shard of a shared transport group —
// the multi-process deployment shape of cmd/mrshard, in-process. Every
// replica must finish with the unsharded state and metrics.
func TestReplicatedShardingLockstep(t *testing.T) {
	for _, transport := range []string{"mem", "tcp"} {
		const M, K = 26, 3
		base := Config{Machines: M, SpaceCap: 1 << 20, Sparse: true}
		wantState, wantMetrics, wantTrace, err := runShardWorkload(base)
		if err != nil {
			t.Fatalf("unsharded: %v", err)
		}

		var groups [][]Transport
		switch transport {
		case "mem":
			eps, err := NewMemGroup(K)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < K; i++ {
				groups = append(groups, []Transport{eps[i]})
			}
		case "tcp":
			nodes := make([]*TCPNode, K)
			addrs := make([]string, K)
			for i := range nodes {
				nd, err := ListenTCP(i, K, "127.0.0.1:0", TransportOpts{})
				if err != nil {
					t.Fatal(err)
				}
				defer nd.Close()
				nodes[i] = nd
				addrs[i] = nd.Addr()
			}
			for _, nd := range nodes {
				if err := nd.Connect(addrs); err != nil {
					t.Fatal(err)
				}
			}
			for i := range nodes {
				ep, err := nodes[i].Endpoint(K)
				if err != nil {
					t.Fatal(err)
				}
				groups = append(groups, []Transport{ep})
			}
		}

		states := make([][]int64, K)
		metrics := make([]Metrics, K)
		traces := make([][]RoundStat, K)
		errs := make([]error, K)
		var wg sync.WaitGroup
		for i := 0; i < K; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cfg := base
				cfg.Shards = K
				cfg.Transport = func(k int) ([]Transport, error) {
					if k != K {
						return nil, fmt.Errorf("replica %d: want %d shards, got %d", i, K, k)
					}
					return groups[i], nil
				}
				states[i], metrics[i], traces[i], errs[i] = runShardWorkload(cfg)
			}(i)
		}
		wg.Wait()
		for i := 0; i < K; i++ {
			if errs[i] != nil {
				t.Fatalf("%s replica %d: %v", transport, i, errs[i])
			}
			if !reflect.DeepEqual(states[i], wantState) {
				t.Errorf("%s replica %d: state diverged", transport, i)
			}
			if metrics[i] != wantMetrics {
				t.Errorf("%s replica %d: metrics diverged\n got %+v\nwant %+v", transport, i, metrics[i], wantMetrics)
			}
			if !reflect.DeepEqual(traces[i], wantTrace) {
				t.Errorf("%s replica %d: trace diverged", transport, i)
			}
		}
	}
}

// TestCloseIdempotentAndGuard covers the Close regression: Close twice is
// fine, and Round/Quiet on a closed cluster return ErrClusterClosed
// instead of panicking on (or hanging against) the released pool.
func TestCloseIdempotentAndGuard(t *testing.T) {
	noop := func(m int, in *Inbox, out *Outbox) {}
	for _, cfg := range []Config{
		{Machines: 4},
		{Machines: 4, Workers: 3},
		{Machines: 8, Shards: 2},
		{Machines: 8, Shards: 3, Workers: 2},
	} {
		c := NewCluster(cfg)
		if err := c.Round(noop); err != nil {
			t.Fatalf("cfg %+v: round on fresh cluster: %v", cfg, err)
		}
		c.Close()
		c.Close() // idempotent
		if err := c.Round(noop); !errors.Is(err, ErrClusterClosed) {
			t.Fatalf("cfg %+v: Round after Close returned %v, want ErrClusterClosed", cfg, err)
		}
		if err := c.Quiet(); !errors.Is(err, ErrClusterClosed) {
			t.Fatalf("cfg %+v: Quiet after Close returned %v, want ErrClusterClosed", cfg, err)
		}
	}
}

// TestShardsClamped: shard counts beyond M clamp, 0/1 run unsharded.
func TestShardsClamped(t *testing.T) {
	for _, tc := range []struct{ m, shards, want int }{
		{1, 4, 1}, {3, 8, 3}, {8, 0, 1}, {8, 1, 1}, {8, 3, 3},
	} {
		c := NewCluster(Config{Machines: tc.m, Shards: tc.shards})
		if got := c.Shards(); got != tc.want {
			t.Errorf("M=%d Shards=%d: effective %d, want %d", tc.m, tc.shards, got, tc.want)
		}
		c.Close()
	}
}
