package harness

import (
	"fmt"

	"beltway/internal/core"
	"beltway/internal/policy"
	"beltway/internal/server"
	"beltway/internal/shard"
)

// serverBenchName is the Result.Benchmark of server-workload runs.
const serverBenchName = "server"

// multiObserver fans one request stream out to several observers
// (telemetry plus the adaptive controller).
type multiObserver []server.Observer

func (m multiObserver) Request(kind, phase, key int, start, latency, pauseCost float64) {
	for _, o := range m {
		o.Request(kind, phase, key, start, latency, pauseCost)
	}
}

// RunServer executes a server workload (internal/server) on one
// collector configuration: request/response traffic over a keyed store,
// with per-request latencies stamped on the cost-unit clock and the SLO
// verdict attached as Result.Server. OOM and cost-budget aborts are
// reported like RunOne's, with the partial request stream summarized.
//
// Rounds are arrival batches. With Env.Mutators > 1 each shard serves
// the full request script from its own seed stream (shard.StreamSeed)
// against a private heap; collections stay shard-local, so per-request
// latencies depend on the shard's own stream only, and reports merge in
// shard order (server.MergeReports).
func RunServer(cfg core.Config, sc server.Config, slo server.SLO, env Env) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("harness: %s on %s: %w", cfg.Name, serverBenchName, err)
	}
	var loops []*server.Loop // by shard id
	return run(cfg, env, runSpec{
		name:   serverBenchName,
		seed:   sc.Seed,
		rounds: sc.Batches(),
		start: func(s *shard.Shard, ctrl *policy.Controller) error {
			// The controller rides the request stream too (phase-boundary
			// detection), so compose it with the telemetry observer.
			var obs server.Observer = s.Tele.ServerObserver()
			if ctrl != nil {
				obs = multiObserver{obs, ctrl}
			}
			lc := sc
			lc.Seed = shard.StreamSeed(sc.Seed, s.ID)
			loop, err := server.NewLoop(lc, server.LoopOpts{Observer: obs, Poll: s.Poll})
			loops = append(loops, loop)
			return err
		},
		body: func(round int, s *shard.Shard) {
			loop := loops[s.ID]
			if round == 0 {
				loop.Start(s.M, s.Heap.Space().Types)
			}
			loop.RunBatch()
		},
		finish: func(res *Result, rt *shard.Runtime) {
			reports := make([]*server.Report, len(loops))
			for i, loop := range loops {
				reports[i] = loop.Report(slo)
			}
			res.Server = server.MergeReports(reports, slo)
			rt.Shards()[0].Tele.ServerObserver().AddViolations(res.Server.Violations())
		},
	})
}
