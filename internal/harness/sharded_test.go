package harness

import (
	"strings"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/workload"
)

func shardedTestConfig(t *testing.T, env Env) core.Config {
	t.Helper()
	cfg, err := collectors.Parse("25.25.100", collectors.Options{
		HeapBytes: 3 << 20, FrameBytes: env.FrameBytes, PhysMemBytes: 0})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestRunShardedScaling pins the acceptance bound on scale-out: 8
// mutators must deliver at least 3x the aggregate allocation+collection
// throughput of 1, measured against the simulated N-core makespan (the
// host's core count is irrelevant — shard clocks advance in cost units).
func TestRunShardedScaling(t *testing.T) {
	env := EnvForScale(0.25)
	env.PhysMemBytes = 0
	cfg := shardedTestConfig(t, env)
	bench := workload.Jess()

	throughput := func(n int) float64 {
		env := env
		env.Mutators = n
		res, err := RunOne(cfg, bench, env)
		if err != nil {
			t.Fatal(err)
		}
		if res.OOM || res.Failure != "" {
			t.Fatalf("%d mutators: OOM=%v failure=%q", n, res.OOM, res.Failure)
		}
		if res.TotalTime <= 0 {
			t.Fatalf("%d mutators: non-positive makespan", n)
		}
		return float64(res.Counters.BytesAllocated+res.Counters.BytesCopied) / res.TotalTime
	}
	t1 := throughput(1)
	t8 := throughput(8)
	if t8 < 3*t1 {
		t.Fatalf("8-mutator throughput %.2f B/cost vs 1-mutator %.2f: %.2fx, want >= 3x", t8, t1, t8/t1)
	}
}

// TestRunOneDispatchesSharded checks the Env.Mutators routing: RunOne
// with Mutators > 1 produces a sharded (aggregated) result.
func TestRunOneDispatchesSharded(t *testing.T) {
	env := EnvForScale(0.25)
	env.PhysMemBytes = 0
	env.Mutators = 2
	cfg := shardedTestConfig(t, env)
	res, err := RunOne(cfg, workload.DB(), env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mutators != 2 {
		t.Fatalf("Mutators = %d, want 2", res.Mutators)
	}
	if res.OOM {
		t.Fatal("unexpected OOM")
	}
}

// TestRunShardedRejectsFaults: the stateful fault injector cannot be
// shared across concurrent shards.
func TestRunShardedRejectsFaults(t *testing.T) {
	env := EnvForScale(0.25)
	env.Mutators = 2
	env.FaultSeed = 7
	cfg := shardedTestConfig(t, env)
	_, err := RunOne(cfg, workload.Jess(), env)
	if err == nil || !strings.Contains(err.Error(), "fault injection (-fault-seed) is single-mutator only") {
		t.Fatalf("RunOne with 2 mutators and a fault seed: err = %v, want the single-mutator gate", err)
	}
}
