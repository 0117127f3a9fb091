package main

import (
	"errors"
	"fmt"
	"time"

	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/harness"
	"beltway/internal/heap"
	"beltway/internal/server"
	"beltway/internal/shard"
	"beltway/internal/stats"
	"beltway/internal/telemetry"
	"beltway/internal/vm"
	"beltway/internal/workload"
)

// The traced runs below build the same Result as harness.RunOne,
// harness.RunServer and harness.RunServerSharded, for the environments
// the workloads use, with a timedCollector between the mutator and the
// heap and the probe's timers merged into the flight recorder's hooks.
// TestTracedRunsKeepDigest holds them to byte-identical results.

// checkTracedEnv rejects the environment features the traced runs do
// not reproduce.
func checkTracedEnv(env harness.Env) error {
	if env.Degrade || env.FaultSeed != 0 || env.Policy != "" || env.Telemetry {
		return fmt.Errorf("perfbench: traced runs support plain environments only")
	}
	return nil
}

// recovered turns a panic out of the heap into the outcome RunOne gives
// it: a budget abort is a partial result, anything else an error.
func recovered(r any, snapshot func() *harness.Result, name, bench string) (*harness.Result, error) {
	if _, ok := r.(stats.BudgetExceeded); ok {
		res := snapshot()
		res.Aborted = true
		return res, nil
	}
	return nil, fmt.Errorf("perfbench: %s on %s: heap corruption: %v", name, bench, r)
}

// tracedRunOne is harness.RunOne with a probe attached.
func tracedRunOne(cfg core.Config, bench *workload.Benchmark, env harness.Env, p *probe) (res *harness.Result, err error) {
	if err := checkTracedEnv(env); err != nil {
		return nil, err
	}
	types := heap.NewRegistry()
	h, err := core.New(cfg, types)
	if err != nil {
		return nil, fmt.Errorf("perfbench: %s on %s: %w", cfg.Name, bench.Name, err)
	}
	h.Clock().Budget = env.CostBudget
	tele := telemetry.NewRun(h.Clock())
	h.SetHooks(p.hooks(tele.Hooks()))
	snapshot := func() *harness.Result {
		return &harness.Result{
			Collector:   cfg.Name,
			Benchmark:   bench.Name,
			HeapBytes:   cfg.HeapBytes,
			TotalTime:   h.Clock().TotalTime(),
			GCTime:      h.Clock().GCTime(),
			MaxPause:    h.Clock().MaxPause(),
			Pauses:      h.Clock().Pauses(),
			Counters:    h.Clock().Counters,
			Collections: h.Collections(),
		}
	}
	defer func() {
		if r := recover(); r != nil {
			p.inBody = false
			res, err = recovered(r, snapshot, cfg.Name, bench.Name)
		}
	}()
	params := workload.Params{Scale: env.Scale, Seed: env.Seed, Pretenure: env.Pretenure}
	var runErr error
	p.runBody(func() { runErr = bench.Run(&timedCollector{Collector: h, p: p}, params) })
	p.rootsPeak = h.Roots().Capacity()
	res = snapshot()
	if runErr != nil {
		if errors.Is(runErr, gc.ErrOutOfMemory) {
			res.OOM = true
			return res, nil
		}
		return nil, fmt.Errorf("perfbench: %s on %s: %w", cfg.Name, bench.Name, runErr)
	}
	return res, nil
}

// tracedRunServer is harness.RunServer (one mutator) with a probe attached.
func tracedRunServer(cfg core.Config, sc server.Config, slo server.SLO, env harness.Env, p *probe) (res *harness.Result, err error) {
	if err := checkTracedEnv(env); err != nil {
		return nil, err
	}
	const bench = "server"
	types := heap.NewRegistry()
	h, err := core.New(cfg, types)
	if err != nil {
		return nil, fmt.Errorf("perfbench: %s on %s: %w", cfg.Name, bench, err)
	}
	h.Clock().Budget = env.CostBudget
	tele := telemetry.NewRun(h.Clock())
	h.SetHooks(p.hooks(tele.Hooks()))
	m := vm.New(&timedCollector{Collector: h, p: p})
	loop, err := server.NewLoop(sc, server.LoopOpts{Observer: tele.ServerObserver()})
	if err != nil {
		return nil, fmt.Errorf("perfbench: %s on %s: %w", cfg.Name, bench, err)
	}
	snapshot := func() *harness.Result {
		res := &harness.Result{
			Collector:   cfg.Name,
			Benchmark:   bench,
			HeapBytes:   cfg.HeapBytes,
			TotalTime:   h.Clock().TotalTime(),
			GCTime:      h.Clock().GCTime(),
			MaxPause:    h.Clock().MaxPause(),
			Pauses:      h.Clock().Pauses(),
			Counters:    h.Clock().Counters,
			Collections: h.Collections(),
			Server:      loop.Report(slo),
		}
		tele.ServerObserver().AddViolations(res.Server.Violations())
		return res
	}
	defer func() {
		if r := recover(); r != nil {
			p.inBody = false
			res, err = recovered(r, snapshot, cfg.Name, bench)
		}
	}()
	var runErr error
	p.runBody(func() {
		runErr = m.Run(func() {
			loop.Start(m, types)
			for !loop.Done() {
				loop.RunBatch()
			}
		})
	})
	p.rootsPeak = h.Roots().Capacity()
	res = snapshot()
	if runErr != nil {
		if errors.Is(runErr, gc.ErrOutOfMemory) {
			res.OOM = true
			return res, nil
		}
		return nil, fmt.Errorf("perfbench: %s on %s: %w", cfg.Name, bench, runErr)
	}
	return res, nil
}

// shardStats is what a traced sharded run reports about the shard layer.
type shardStats struct {
	rounds, polls, routed uint64
	run                   time.Duration // wall time of the rounds
}

// tracedRunServerSharded is harness.RunServerSharded with one probe per
// shard attached.
func tracedRunServerSharded(cfg core.Config, sc server.Config, slo server.SLO, env harness.Env, probes []*probe) (*harness.Result, shardStats, error) {
	var ss shardStats
	n := env.Mutators
	if err := checkTracedEnv(env); err != nil {
		return nil, ss, err
	}
	if n != len(probes) || n < 2 {
		return nil, ss, fmt.Errorf("perfbench: %d probes for %d mutators", len(probes), n)
	}
	const bench = "server"
	if err := sc.Validate(); err != nil {
		return nil, ss, fmt.Errorf("perfbench: %s on %s: %w", cfg.Name, bench, err)
	}
	rt, err := shard.New(cfg, shard.Options{Shards: n, Seed: sc.Seed, PerShardHeap: true, Telemetry: true})
	if err != nil {
		return nil, ss, fmt.Errorf("perfbench: %s on %s: %w", cfg.Name, bench, err)
	}
	loops := make([]*server.Loop, n)
	for _, s := range rt.Shards() {
		p := probes[s.ID]
		s.Heap.SetHooks(p.hooks(s.Tele.Hooks()))
		s.M.C = &timedCollector{Collector: s.Heap, p: p}
		s.Heap.Clock().Budget = env.CostBudget
		lc := sc
		lc.Seed = shard.StreamSeed(sc.Seed, s.ID)
		loop, err := server.NewLoop(lc, server.LoopOpts{Observer: s.Tele.ServerObserver(), Poll: s.Poll})
		if err != nil {
			return nil, ss, fmt.Errorf("perfbench: %s on %s: %w", cfg.Name, bench, err)
		}
		loops[s.ID] = loop
	}
	plan := shard.Plan{
		Rounds: sc.Batches(),
		Body: func(round int, s *shard.Shard) {
			loop := loops[s.ID]
			probes[s.ID].runBody(func() {
				if round == 0 {
					loop.Start(s.M, s.Heap.Space().Types)
				}
				loop.RunBatch()
			})
		},
	}
	t0 := time.Now()
	err = rt.Run(plan)
	ss.run = time.Since(t0)
	if err != nil {
		return nil, ss, fmt.Errorf("perfbench: %s on %s: %w", cfg.Name, bench, err)
	}
	reports := make([]*server.Report, n)
	for i, loop := range loops {
		reports[i] = loop.Report(slo)
	}
	merged := server.MergeReports(reports, slo)
	rt.Shards()[0].Tele.ServerObserver().AddViolations(merged.Violations())

	sres := rt.Result()
	ss.rounds = uint64(sres.Rounds)
	ss.routed = uint64(sres.RoutedEntries)
	res := &harness.Result{
		Collector: cfg.Name,
		Benchmark: bench,
		HeapBytes: cfg.HeapBytes,
		Mutators:  n,
		TotalTime: sres.Makespan,
		Server:    merged,
	}
	for _, st := range sres.PerShard {
		ss.polls += st.Polls
		res.Counters.Add(st.Counters)
		res.Collections += st.Collections
		if st.GCTime > res.GCTime {
			res.GCTime = st.GCTime
		}
		if st.MaxPause > res.MaxPause {
			res.MaxPause = st.MaxPause
		}
		res.Pauses = append(res.Pauses, st.Pauses...)
		if st.OOM {
			res.OOM = true
		}
		if st.Aborted {
			res.Aborted = true
		}
		if st.Failure != "" && res.Failure == "" {
			res.Failure = fmt.Sprintf("shard %d: %s", st.ID, st.Failure)
		}
	}
	for _, s := range rt.Shards() {
		probes[s.ID].rootsPeak = s.Heap.Roots().Capacity()
	}
	return res, ss, nil
}
