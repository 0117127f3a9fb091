package harness

import (
	"errors"
	"strings"
	"testing"

	"beltway/internal/heap"
	"beltway/internal/workload"
)

// corruptingBenchmark allocates and collects normally, then reads
// through an unmapped address — the substrate's memory fault, standing
// in for any heap-invariant violation that panics mid-run.
func corruptingBenchmark() *workload.Benchmark {
	return &workload.Benchmark{
		Name: "corrupting",
		Body: func(c *workload.Ctx) {
			node := c.Types.DefineScalar("hc.node", 1, 1)
			for i := 0; i < 200; i++ {
				c.M.Alloc(node, 0)
			}
			c.M.Collect(false)
			c.M.C.Space().Word(heap.Addr(0x7ffffff0))
		},
	}
}

func TestRunOneRecoversPanicAsHeapCorruption(t *testing.T) {
	env := testEnv()
	res, err := RunOne(appelFunc(env)(1<<20), corruptingBenchmark(), env)
	if res != nil {
		t.Fatalf("corrupted run returned a Result: %+v", res)
	}
	var hc *HeapCorruptionError
	if !errors.As(err, &hc) {
		t.Fatalf("error %T (%v), want *HeapCorruptionError", err, err)
	}
	if hc.Collector == "" || hc.Benchmark != "corrupting" {
		t.Errorf("error misattributed: collector=%q benchmark=%q", hc.Collector, hc.Benchmark)
	}
	if hc.Panic == nil {
		t.Error("Panic not captured")
	}
	if len(hc.Events) < 1 {
		t.Fatal("no flight-recorder events attached; the tail should hold the preceding collection")
	}
	msg := hc.Error()
	if !strings.Contains(msg, "heap corruption") || !strings.Contains(msg, "flight-recorder events") {
		t.Errorf("Error() = %q, want panic context plus the event tail", msg)
	}
}

// TestRunOneBudgetAbortStillWorks guards the recovery split: the
// cost-budget panic must keep producing an Aborted result, not a
// corruption error.
func TestRunOneBudgetAbortStillWorks(t *testing.T) {
	env := testEnv()
	env.CostBudget = 50_000
	res, err := RunOne(appelFunc(env)(1<<20), workload.Get("db"), env)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatalf("budget %v did not abort the run (total %v)", env.CostBudget, res.TotalTime)
	}
}

// TestRunOneRecoversShardPanicAsHeapCorruption: with several mutators a
// panicking shard surfaces the same way, with that shard's event tail.
func TestRunOneRecoversShardPanicAsHeapCorruption(t *testing.T) {
	env := testEnv()
	env.Mutators = 2
	_, err := RunOne(appelFunc(env)(1<<20), corruptingBenchmark(), env)
	var hc *HeapCorruptionError
	if !errors.As(err, &hc) {
		t.Fatalf("error %T (%v), want *HeapCorruptionError", err, err)
	}
	if hc.Panic == nil || len(hc.Events) < 1 {
		t.Fatalf("panic %v with %d events; want the panic value and the shard's event tail", hc.Panic, len(hc.Events))
	}
}
