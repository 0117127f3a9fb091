package bench

import (
	"math/rand"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/heap"
	"beltway/internal/vm"
	"beltway/internal/workload"
)

// runWorkload measures end-to-end simulated-mutator throughput for one
// benchmark body on a roomy heap (collector cost mostly excluded).
func runWorkload(b *testing.B, name string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		allocated, err := RunWorkload(name)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(allocated))
	}
}

// RunWorkload runs one workload-suite iteration of the named benchmark
// body — a fresh 8MB Beltway 25.25.100 heap at scale 0.1 — and returns
// the simulated bytes it allocated. The workload allocation guards
// measure exactly this.
func RunWorkload(name string) (uint64, error) {
	types := heap.NewRegistry()
	h, err := core.New(collectors.XX100(25,
		collectors.Options{HeapBytes: 8 << 20, FrameBytes: 8 * 1024}), types)
	if err != nil {
		return 0, err
	}
	m := vm.New(h)
	ctx := &workload.Ctx{M: m, Types: types, Rng: rand.New(rand.NewSource(1)), Scale: 0.1}
	if err := m.Run(func() { workload.Get(name).Body(ctx) }); err != nil {
		return 0, err
	}
	return h.Clock().Counters.BytesAllocated, nil
}

func WorkloadJess(b *testing.B)      { runWorkload(b, "jess") }
func WorkloadRaytrace(b *testing.B)  { runWorkload(b, "raytrace") }
func WorkloadDB(b *testing.B)        { runWorkload(b, "db") }
func WorkloadJavac(b *testing.B)     { runWorkload(b, "javac") }
func WorkloadJack(b *testing.B)      { runWorkload(b, "jack") }
func WorkloadPseudoJBB(b *testing.B) { runWorkload(b, "pseudojbb") }
