package workload_test

import (
	"testing"

	"beltway/internal/bench"
)

// maxWorkloadAllocs is the Go-allocation ceiling for one workload-suite
// run (heap construction included). Runs measured 176–937 once scoped
// roots stopped allocating a slice per scope; before that they took
// 13.8k–40k, nearly all of it in the root set.
const maxWorkloadAllocs = 2000

// TestWorkloadAllocCeilings pins every synthetic's per-run Go
// allocations under maxWorkloadAllocs, so allocation growth on the
// mutator, root-set or collector paths fails here rather than surfacing
// later as a bench regression.
func TestWorkloadAllocCeilings(t *testing.T) {
	for _, name := range []string{"jess", "raytrace", "db", "javac", "jack", "pseudojbb"} {
		t.Run(name, func(t *testing.T) {
			var err error
			n := testing.AllocsPerRun(2, func() {
				if _, e := bench.RunWorkload(name); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if n > maxWorkloadAllocs {
				t.Errorf("%s allocates %v times per run, want <= %d", name, n, maxWorkloadAllocs)
			}
		})
	}
}
