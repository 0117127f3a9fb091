// Command experiments regenerates the tables and figures of "Beltway:
// Getting Around Garbage Collection Gridlock" (PLDI 2002).
//
// Usage:
//
//	experiments -exp fig9                # one experiment
//	experiments -exp all                 # everything, paper order
//	experiments -exp fig9 -points 9      # coarser sweep (faster)
//	experiments -exp table1 -scale 0.25  # smaller workloads
//	experiments -list                    # show available experiments
//
// Runs execute in parallel on a worker pool (-jobs, default GOMAXPROCS);
// every run is deterministic and independent, and results are reassembled
// in a fixed order, so the tables are byte-identical for any -jobs value.
// With -checkpoint FILE each completed run streams a JSONL record; a
// killed sweep rerun with -resume skips the runs the file already holds:
//
//	experiments -exp all -jobs 8 -checkpoint run.jsonl
//	experiments -exp all -jobs 8 -checkpoint run.jsonl -resume
//
// A diverging configuration can be bounded with -timeout (wall clock) or
// -budget (simulated seconds, deterministic); either records a failure
// for that run and the sweep continues.
//
// Output is a set of text tables, one data series per collector — the
// same rows/series the paper plots. Absolute "seconds" are nominal cost
// units; compare shapes, not magnitudes (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"

	"beltway/internal/engine"
	"beltway/internal/experiments"
	"beltway/internal/harness"
	"beltway/internal/stats"
	"beltway/internal/telemetry"
	"beltway/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table1, fig1, fig5..fig11, all)")
		points   = flag.Int("points", 17, "heap sizes per sweep (paper used 33)")
		scale    = flag.Float64("scale", 1.0, "workload scale")
		seed     = flag.Int64("seed", workload.DefaultParams().Seed, "workload PRNG seed")
		frameKB  = flag.Int("frame", 0, "frame size in KB (power of two; 0 = auto from scale)")
		physMB   = flag.Int("physmem", -1, "modelled physical memory in MB (0 = no paging, -1 = auto)")
		verbose  = flag.Bool("v", false, "print per-run progress")
		list     = flag.Bool("list", false, "list experiments and exit")
		csvOut   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		benchSel = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all six)")

		jobs = flag.Int("jobs", runtime.GOMAXPROCS(0),
			"parallel runs (worker pool size); output is identical for any value")
		checkpoint = flag.String("checkpoint", "",
			"JSONL file streaming one record per completed run")
		resume = flag.Bool("resume", false,
			"load -checkpoint and skip runs it already holds (appends new records)")
		timeout = flag.Duration("timeout", 0,
			"per-run wall-clock budget (e.g. 30s; 0 = none); exceeded runs are recorded as failures")
		budget = flag.Float64("budget", 0,
			"per-run cost budget in nominal seconds of simulated time (0 = none); exceeded runs abort deterministically")
		degrade = flag.Bool("degrade", false,
			"enable the graceful-degradation ladder: emergency full-heap collection and one retry before any run reports OOM")
		mutators = flag.Int("mutators", 1,
			"mutator goroutines per run; >1 shards every run over N private heaps (default 1 = classic single-mutator tables)")
		faultSeed = flag.Int64("fault-seed", 0,
			"run every configuration under a deterministic fault-injection schedule derived from this seed (chaos testing; 0 = off)")
		slo = flag.String("slo", "",
			"request-latency SLO for -exp server, e.g. p99=10e3,p99.9=1e6,max=20e6 (cost units; default: the built-in bar)")
		adapt = flag.String("adapt", "",
			"run every measurement with the adaptive policy controller on this objective (slo | mmu | footprint | throughput; empty = static)")

		traceOut = flag.String("trace-out", "",
			"write a Chrome trace_event JSON of every run's GC events (open in chrome://tracing or Perfetto)")
		metricsOut = flag.String("metrics-out", "",
			"write aggregated metrics in Prometheus text exposition format")
		timelineOut = flag.String("timeline", "",
			"write an ASCII heap-composition timeline per run")
		metricsAddr = flag.String("metrics-addr", "",
			"serve live aggregated metrics over HTTP at this address (e.g. :9090) while the sweep runs")
	)
	flag.Parse()
	if *resume && *checkpoint == "" {
		fatalf("-resume requires -checkpoint")
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Description)
		}
		for _, e := range experiments.Extensions() {
			fmt.Printf("%-10s %s (extension; not in -exp all)\n", e.ID, e.Description)
		}
		return
	}

	env := harness.EnvForScale(*scale)
	env.Seed = *seed
	if *frameKB > 0 {
		env.FrameBytes = *frameKB * 1024
	}
	if *physMB >= 0 {
		env.PhysMemBytes = *physMB * 1024 * 1024
	}
	if *budget > 0 {
		env.CostBudget = *budget * stats.CyclesPerSecond
	}
	env.Degrade = *degrade
	env.FaultSeed = *faultSeed
	env.Mutators = *mutators
	env.Policy = *adapt
	if err := harness.ValidateEnv(env); err != nil {
		fatalf("%v", err)
	}

	// Telemetry: observability output goes to files (and the optional HTTP
	// endpoint), never stdout, so the printed tables stay byte-identical
	// with telemetry enabled or disabled.
	var obs *observer
	if *traceOut != "" || *metricsOut != "" || *timelineOut != "" || *metricsAddr != "" {
		env.Telemetry = true
		obs = newObserver()
		if *metricsAddr != "" {
			go func() {
				if err := http.ListenAndServe(*metricsAddr, obs.agg.Handler()); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: metrics endpoint: %v\n", err)
				}
			}()
		}
	}

	opts := experiments.Opts{
		Env:        env,
		Points:     *points,
		Jobs:       *jobs,
		Checkpoint: *checkpoint,
		Resume:     *resume,
		Timeout:    *timeout,
		ServerSLO:  *slo,
	}
	if *checkpoint != "" {
		// Bind checkpoint records to this build and configuration, so a
		// -resume against records from a different binary or parameter set
		// re-executes them (loudly) instead of silently reusing them.
		binHash, err := engine.BinaryHash()
		if err != nil {
			fatalf("hashing own binary: %v", err)
		}
		envJSON, err := json.Marshal(env)
		if err != nil {
			fatalf("fingerprinting env: %v", err)
		}
		opts.Fingerprint = engine.Fingerprint("experiments", binHash, string(envJSON),
			fmt.Sprint(*points), *benchSel, *slo)
	}
	if obs != nil {
		opts.OnRecord = obs.onRecord
	}
	if *benchSel != "" {
		for _, name := range strings.Split(*benchSel, ",") {
			b := workload.Get(strings.TrimSpace(name))
			if b == nil {
				fatalf("unknown benchmark %q (have: %s)", name, strings.Join(workload.Names(), ", "))
			}
			opts.Benchmarks = append(opts.Benchmarks, b)
		}
	}
	if *verbose {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	suite := experiments.New(opts)
	defer suite.Close()
	if *checkpoint != "" {
		// A killed sweep must leave a durable checkpoint: flush it on
		// SIGINT/SIGTERM, then die with the conventional signal status.
		stop := suite.Engine().FlushOnSignal(os.Interrupt, syscall.SIGTERM)
		defer stop()
	}

	var ids []string
	if *exp == "all" {
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	for _, id := range ids {
		e := experiments.Get(strings.TrimSpace(id))
		if e == nil {
			fatalf("unknown experiment %q (use -list)", id)
		}
		tables, err := e.Run(suite)
		if err != nil {
			fatalf("%s: %v", e.ID, err)
		}
		for _, t := range tables {
			if *csvOut {
				fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Println(t.String())
			}
		}
	}

	if obs != nil {
		if *traceOut != "" {
			if err := obs.writeTrace(*traceOut); err != nil {
				fatalf("-trace-out: %v", err)
			}
			fmt.Fprintf(os.Stderr, "experiments: wrote Chrome trace to %s\n", *traceOut)
		}
		if *metricsOut != "" {
			if err := obs.writeMetrics(*metricsOut); err != nil {
				fatalf("-metrics-out: %v", err)
			}
			fmt.Fprintf(os.Stderr, "experiments: wrote Prometheus metrics to %s\n", *metricsOut)
		}
		if *timelineOut != "" {
			if err := obs.writeTimelines(*timelineOut); err != nil {
				fatalf("-timeline: %v", err)
			}
			fmt.Fprintf(os.Stderr, "experiments: wrote heap timelines to %s\n", *timelineOut)
		}
	}
}

// observer aggregates telemetry from engine records as runs settle. Safe
// for concurrent use (records arrive from worker goroutines).
type observer struct {
	agg *telemetry.Aggregator

	mu   sync.Mutex
	runs map[string]observedRun // by engine key, deduplicated
}

type observedRun struct {
	name   string
	events []telemetry.Event
}

func newObserver() *observer {
	return &observer{agg: telemetry.NewAggregator(), runs: map[string]observedRun{}}
}

// onRecord decodes a settled engine record's payload and folds its
// telemetry into the aggregate. Records without telemetry (failures,
// resumed from a telemetry-less checkpoint) are skipped.
func (o *observer) onRecord(rec engine.Record) {
	if !rec.Outcome.Completed() || len(rec.Payload) == 0 {
		return
	}
	var p harness.RunPayload
	if err := json.Unmarshal(rec.Payload, &p); err != nil || p.Result == nil || p.Result.Telemetry == nil {
		return
	}
	key := rec.Key.String()
	o.mu.Lock()
	_, seen := o.runs[key]
	if !seen {
		o.runs[key] = observedRun{
			name: fmt.Sprintf("%s / %s @ %sMB", p.Result.Collector, p.Result.Benchmark,
				harness.FmtMB(p.Result.HeapBytes)),
			events: p.Result.Telemetry.Events,
		}
	}
	o.mu.Unlock()
	if !seen {
		o.agg.Add(p.Result.Collector, p.Result.Telemetry)
	}
}

// sortedRuns returns the observed runs ordered by key, so file output is
// deterministic regardless of completion order.
func (o *observer) sortedRuns() []observedRun {
	o.mu.Lock()
	defer o.mu.Unlock()
	keys := make([]string, 0, len(o.runs))
	for k := range o.runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]observedRun, 0, len(keys))
	for _, k := range keys {
		out = append(out, o.runs[k])
	}
	return out
}

func (o *observer) writeTrace(path string) error {
	runs := o.sortedRuns()
	tr := make([]telemetry.TraceRun, len(runs))
	for i, r := range runs {
		tr[i] = telemetry.TraceRun{Name: r.name, Pid: i + 1, Events: r.events}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return telemetry.WriteChromeTrace(f, tr)
}

func (o *observer) writeMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return o.agg.WritePrometheus(f)
}

func (o *observer) writeTimelines(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, r := range o.sortedRuns() {
		if err := telemetry.WriteTimeline(f, r.name, r.events); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(f); err != nil {
			return err
		}
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
