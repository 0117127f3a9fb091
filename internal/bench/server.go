package bench

import (
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/harness"
	"beltway/internal/server"
)

// ServerPolicy, when non-empty, runs the one-mutator server benchmarks
// with the adaptive policy controller on this objective
// (harness.Env.Policy syntax). cmd/bench sets it from -adapt so the
// controller's steady-state overhead is diffable against static runs;
// the four-mutator benchmark ignores it, since harness.RunServer
// rejects a policy on more than one mutator.
var ServerPolicy string

// runServer measures the request/response server workload end to end on
// one preset. Reported extras:
//
//	req/s          requests served per wall-clock second (host
//	               throughput of the whole simulator stack)
//	p99-cost/op    exact p99 request latency in simulated cost units —
//	               the SLO-bearing number, identical on any host
//	max-cost/op    worst single-request latency in cost units
//
// The cost-unit extras are deterministic, so compare runs flag tail
// regressions (a collector change parking pauses under requests) even
// when host throughput is noisy.
func runServer(b *testing.B, preset string, mutators int) {
	sc := server.Scaled(0.1)
	env := harness.EnvForScale(0.1)
	env.Mutators = mutators
	if mutators == 1 {
		env.Policy = ServerPolicy
	}
	hb := int(float64(sc.EstLiveBytes()) * 3)
	hb = (hb/env.FrameBytes + 1) * env.FrameBytes
	cfg, err := collectors.Parse(preset, collectors.Options{
		HeapBytes: hb, FrameBytes: env.FrameBytes})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var served int
	var p99, max float64
	for i := 0; i < b.N; i++ {
		res, rerr := harness.RunServer(cfg, sc, server.SLO{}, env)
		if rerr != nil {
			b.Fatal(rerr)
		}
		if res.OOM {
			b.Fatal("server bench OOM: heap sizing is off")
		}
		served += res.Server.Overall.Requests
		p99 = res.Server.Overall.Latency.P99
		max = res.Server.Overall.Latency.Max
	}
	b.ReportMetric(float64(served)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(p99, "p99-cost/op")
	b.ReportMetric(max, "max-cost/op")
}

func ServerBeltway(b *testing.B)  { runServer(b, "25.25", 1) }
func ServerAppel(b *testing.B)    { runServer(b, "appel", 1) }
func ServerImmix(b *testing.B)    { runServer(b, "immix", 1) }
func ServerSharded4(b *testing.B) { runServer(b, "25.25", 4) }
