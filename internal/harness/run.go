// Package harness runs workloads on collector configurations and
// aggregates the measurements behind every table and figure in the
// paper's evaluation: heap-size sweeps (1x-3x the minimum heap,
// log-spaced, as in §4.1), minimum-heap binary search (Table 1),
// relative-to-best normalization and geometric means across benchmarks
// (Figures 5-10), and MMU curves (Figure 11).
package harness

import (
	"errors"
	"fmt"
	"math"

	"beltway/internal/core"
	"beltway/internal/gc"
	"beltway/internal/mmu"
	"beltway/internal/policy"
	"beltway/internal/resilience"
	"beltway/internal/server"
	"beltway/internal/shard"
	"beltway/internal/stats"
	"beltway/internal/telemetry"
	"beltway/internal/workload"
)

// Env fixes the machine-level parameters of an experiment.
type Env struct {
	FrameBytes   int     // simulated frame size
	PhysMemBytes int     // physical memory for the paging model (0 = off)
	Scale        float64 // workload scale
	Seed         int64
	Pretenure    bool // route known-long-lived allocation sites to older belts
	// CostBudget, when positive, aborts a run once its clock passes this
	// many cost units; the partial measurement is returned with
	// Result.Aborted set. This is the deterministic counterpart of a
	// wall-clock timeout: it actually stops the simulated run.
	CostBudget float64
	// Telemetry attaches a telemetry.Run (flight recorder + metrics) to
	// every run and returns its snapshot in Result.Telemetry. Telemetry
	// observes the clock without advancing it, so enabling it changes no
	// measurement.
	Telemetry bool `json:",omitempty"`
	// Degrade enables the graceful-degradation ladder (core.Config.Degrade)
	// on every configuration: emergency full-heap collection and one retry
	// before any allocation surfaces OOM.
	Degrade bool `json:",omitempty"`
	// FaultSeed, when non-zero, runs every configuration under a
	// deterministic fault-injection schedule derived from this seed
	// (resilience.NewSchedule with the default horizon). Chaos testing
	// only; leave zero for measurements.
	FaultSeed int64 `json:",omitempty"`
	// Mutators is the number of sharded mutator goroutines
	// (internal/shard), each driving a private heap with the same
	// configuration and its own seed stream; above 1 the measurement is
	// the simulated N-core makespan. 0 and 1 both mean one mutator.
	Mutators int `json:",omitempty"`
	// Policy, when non-empty, attaches the adaptive policy controller
	// (internal/policy) with this objective spec — policy.Parse syntax,
	// e.g. "slo", "mmu:floor=0.7", "throughput". Adaptive runs are
	// single-mutator only. Empty (the default) leaves every run exactly
	// as static as the paper's.
	Policy string `json:",omitempty"`
}

// DefaultEnv mirrors the paper's testbed at scale 1: see EnvForScale.
func DefaultEnv() Env { return EnvForScale(1.0) }

// EnvForScale mirrors the paper's testbed at a given workload scale.
// Frame size and modelled physical memory both shrink with the workload
// so that heap geometry stays comparable:
//
//   - frames: 16KB at scale 1 (increments then span dozens of frames at
//     benchmark min heaps, as the paper's do), power-of-two rounded,
//     clamped to [2KB, 64KB];
//   - physical memory: 16MB at scale 1, preserving the paper's ratio of
//     physical memory to pseudojbb's minimum heap (128MB : 70MB ≈ 1.8)
//     so that, as in Figure 1(b), only pseudojbb's large-heap
//     configurations page.
func EnvForScale(scale float64) Env {
	frame := 2048
	for float64(frame*2) <= 16384*scale && frame < 65536 {
		frame *= 2
	}
	return Env{
		FrameBytes:   frame,
		PhysMemBytes: int(16 * 1024 * 1024 * scale),
		Scale:        scale,
		Seed:         workload.DefaultParams().Seed,
	}
}

// ConfigFunc builds a collector configuration for a given heap size.
// Presets are curried over everything but the heap size so the sweep can
// vary it.
type ConfigFunc func(heapBytes int) core.Config

// Result is one (collector, benchmark, heap size) measurement.
type Result struct {
	Collector string
	Benchmark string
	HeapBytes int
	// Mutators records the shard count of a multi-mutator run (0 for the
	// classic single-mutator path). Sharded results aggregate: TotalTime
	// is the simulated N-core makespan, counters are summed over shards.
	Mutators int `json:",omitempty"`

	TotalTime float64 // cost units
	GCTime    float64
	MaxPause  float64
	Pauses    []stats.Pause
	Counters  stats.Counters

	Collections uint64
	OOM         bool // run did not complete at this heap size
	// Aborted marks a run stopped by Env.CostBudget; the metrics are the
	// partial timeline up to the abort.
	Aborted bool `json:",omitempty"`
	// Failure records an execution failure (panic, timeout, job error)
	// observed by the engine instead of a measurement. All metric fields
	// are zero; aggregation treats the point like an OOM.
	Failure string `json:",omitempty"`
	// Telemetry is the run's flight-recorder events and metric snapshot,
	// present only when Env.Telemetry was set.
	Telemetry *telemetry.RunSnapshot `json:",omitempty"`
	// Server is the request/latency report of a server-workload run
	// (RunServer); nil for the classic benchmark runs.
	Server *server.Report `json:",omitempty"`
	// Policy is the adaptive controller's digest (decision count, knob
	// drift), present only when Env.Policy was set.
	Policy *policy.Summary `json:",omitempty"`
}

// Incomplete reports whether the run produced no valid end-to-end
// measurement: out of memory, budget-aborted, or failed. Aggregation
// renders such points as missing data.
func (r *Result) Incomplete() bool { return r.OOM || r.Aborted || r.Failure != "" }

// GCFraction returns the share of total time spent collecting.
func (r *Result) GCFraction() float64 {
	if r.TotalTime == 0 {
		return 0
	}
	return r.GCTime / r.TotalTime
}

// MMU computes the run's minimum-mutator-utilization curve.
func (r *Result) MMU(points int) mmu.Curve {
	total := r.TotalTime
	curve := mmu.Curve{MaxPause: r.MaxPause}
	if total > 0 {
		curve.Throughput = 1 - r.GCTime/total
	}
	lo := r.MaxPause / 4
	if lo <= 0 {
		lo = total / 1e6
	}
	for i := 0; i < points; i++ {
		w := lo * math.Pow(total/lo, float64(i)/float64(points-1))
		curve.Points = append(curve.Points, mmu.Point{
			Window:      w,
			Utilization: mmu.MMU(r.Pauses, total, w),
		})
	}
	curve.Monotone()
	return curve
}

// RunOne executes one benchmark on one collector configuration. An
// out-of-memory completion is reported via Result.OOM, not an error, and
// a cost-budget abort via Result.Aborted; errors are reserved for
// misconfiguration and heap corruption (*HeapCorruptionError).
//
// With Env.Mutators > 1 every shard runs the full benchmark body against
// a private heap with the run's configuration and its own decorrelated
// seed stream (shard.StreamSeed): N independent program instances on a
// simulated N-core machine, the scale-out the paper's single-threaded
// testbed could not measure. Collections stay shard-local, and the run
// ends with one rendezvoused global collection at the final barrier.
func RunOne(cfg core.Config, bench *workload.Benchmark, env Env) (*Result, error) {
	if env.Scale <= 0 {
		return nil, fmt.Errorf("harness: %s on %s: non-positive scale %v", cfg.Name, bench.Name, env.Scale)
	}
	return run(cfg, env, runSpec{
		name:    bench.Name,
		seed:    env.Seed,
		rounds:  1,
		finalGC: true,
		body: func(_ int, s *shard.Shard) {
			bench.Body(&workload.Ctx{
				M:         s.M,
				Types:     s.Heap.Space().Types,
				Rng:       s.Rng,
				Scale:     env.Scale,
				Pretenure: env.Pretenure,
			})
		},
	})
}

// runSpec is what one kind of run adds to the shared runner.
type runSpec struct {
	name    string // Result.Benchmark
	seed    int64  // base seed of the shard streams
	rounds  int
	finalGC bool // with N > 1 shards, collect globally at the last barrier
	// start prepares each shard, in id order, before the first round;
	// ctrl is the run's adaptive controller (nil unless Env.Policy is
	// set). finish completes the Result before telemetry is snapshotted.
	// Both may be nil.
	start  func(s *shard.Shard, ctrl *policy.Controller) error
	body   func(round int, s *shard.Shard)
	finish func(res *Result, rt *shard.Runtime)
}

// run is the one run path: a shard.Runtime of Env.Mutators shards (one
// when unset) over cfg, the spec's plan, and the shards folded into a
// Result.
//
// One shard is the classic single-mutator run: shard 0's seed stream is
// the identity, cfg carries the fault injector and adaptive controller,
// there is no final rendezvous (one shard has nobody to meet), and the
// Result is the shard's own timeline with Mutators left 0. With N > 1,
// TotalTime is the simulated N-core makespan, GCTime and MaxPause the
// maximum over shards, counters and collections the sum, and Pauses the
// concatenation of every shard's (quantiles stay meaningful; MMU windows
// are conservative since concurrent pauses overlap).
//
// A panic out of a shard's heap or vm means its state is untrustworthy:
// no Result, but a *HeapCorruptionError with the panic and that shard's
// flight-recorder tail. Every shard carries a recorder for that reason
// (hook emission reads the clock without advancing it).
func run(cfg core.Config, env Env, spec runSpec) (*Result, error) {
	if err := checkMutators(env); err != nil {
		return nil, err
	}
	n := max(env.Mutators, 1)
	if env.Degrade {
		cfg.Degrade = true
	}
	if env.FaultSeed != 0 && cfg.Faults == nil {
		sched := resilience.NewSchedule(env.FaultSeed, resilience.DefaultHorizon)
		cfg.Faults = resilience.NewInjector(sched).Hooks()
	}
	// Controllers are stateful: every run gets a fresh one.
	var ctrl *policy.Controller
	if env.Policy != "" {
		pc, err := policy.Parse(env.Policy)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		ctrl = policy.New(pc)
		cfg.Policy = ctrl
	}
	wrap := func(err error) error { return fmt.Errorf("harness: %s on %s: %w", cfg.Name, spec.name, err) }
	rt, err := shard.New(cfg, shard.Options{Shards: n, Seed: spec.seed, PerShardHeap: true, Telemetry: true})
	if err != nil {
		return nil, wrap(err)
	}
	for _, s := range rt.Shards() {
		s.Heap.Clock().Budget = env.CostBudget
		if ctrl != nil {
			ctrl.SetEmitter(s.Tele.PolicyObserver())
		}
		if spec.start != nil {
			if err := spec.start(s, ctrl); err != nil {
				return nil, wrap(err)
			}
		}
	}
	panics := make([]any, n) // the runtime keeps only a failure string
	plan := shard.Plan{
		Rounds: spec.rounds,
		Body: func(round int, s *shard.Shard) {
			defer func() {
				if r := recover(); r != nil {
					panics[s.ID] = r
					panic(r)
				}
			}()
			spec.body(round, s)
		},
	}
	if spec.finalGC && n > 1 {
		plan.CollectEvery = spec.rounds
	}
	if err := rt.Run(plan); err != nil {
		return nil, wrap(err)
	}
	for _, s := range rt.Shards() {
		if s.Failure() != "" {
			p := panics[s.ID]
			if p == nil {
				p = s.Failure()
			}
			return nil, &HeapCorruptionError{
				Collector: cfg.Name,
				Benchmark: spec.name,
				Panic:     p,
				Events:    s.Tele.Recorder().Last(corruptionEventTail),
			}
		}
		if err := s.Err(); err != nil && !errors.Is(err, gc.ErrOutOfMemory) {
			return nil, wrap(err)
		}
	}

	sres := rt.Result()
	res := &Result{Collector: cfg.Name, Benchmark: spec.name, HeapBytes: cfg.HeapBytes}
	if n == 1 {
		st := sres.PerShard[0]
		res.TotalTime, res.GCTime, res.MaxPause = st.TotalTime, st.GCTime, st.MaxPause
		res.Pauses, res.Counters, res.Collections = st.Pauses, st.Counters, st.Collections
		res.OOM, res.Aborted = st.OOM, st.Aborted
	} else {
		res.Mutators = n
		res.TotalTime = sres.Makespan
		for _, st := range sres.PerShard {
			res.Counters.Add(st.Counters)
			res.Collections += st.Collections
			res.GCTime = max(res.GCTime, st.GCTime)
			res.MaxPause = max(res.MaxPause, st.MaxPause)
			res.Pauses = append(res.Pauses, st.Pauses...)
			res.OOM = res.OOM || st.OOM
			res.Aborted = res.Aborted || st.Aborted
		}
	}
	if spec.finish != nil {
		spec.finish(res, rt)
	}
	if env.Telemetry {
		res.Telemetry = rt.MergedTelemetry()
	}
	if ctrl != nil {
		res.Policy = ctrl.Summary()
	}
	return res, nil
}
