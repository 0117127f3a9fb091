package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/engine"
	"beltway/internal/experiments"
	"beltway/internal/farm"
	"beltway/internal/harness"
	"beltway/internal/server"
	"beltway/internal/workload"
)

// Workload sizes. At these scales one pass takes 0.7-1.9 s of host time
// per input seed on a 2-core Xeon VM, so a run holds several passes; see
// README.md for the numbers.
const (
	paperScale  = 0.05
	serverScale = 0.15
	farmScale   = 0.05
	farmWorkers = 2
	farmReplay  = 8
	shardCount  = 2
	warmHeap    = 2 << 20
)

// paperPanel is the copying panel of the paper's evaluation: the Appel
// baseline, the best fixed nursery, and the Beltway configurations
// 100.100 (semi-space generational), 100.100.100, 25.25 and 25.25.100.
var paperPanel = []string{"appel", "fixed:25", "100.100", "100.100.100", "25.25", "25.25.100"}

// serverPanel is the server experiment's preset panel, mark-region
// variants included.
var serverPanel = []string{"appel", "fixed:25", "25.25", "25.25.100", "25.25-mr", "immix"}

var (
	tightFactors  = []float64{1.1, 1.2, 1.3}
	roomyFactors  = []float64{2.5, 2.75, 3.0}
	serverFactors = []float64{2, 3, 4, 6}
	farmFactors   = []float64{1.5, 2, 2.5, 3}
	farmBenches   = []string{"jess", "raytrace", "db", "javac", "jack"}
)

// workloadDef is one benchmark workload. Set-up makes an instance for
// one workload seed, its warm-up included: each benchmark or preset runs
// once before the first timed job.
type workloadDef struct {
	name, why string
	setup     func(seed int64, work string) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// pass runs the workload once. A nil tracer runs it through the
	// program's public entry points only; a tracer adds the probes.
	pass(idx int, tr *tracer, parent int) (*passOutput, error)
}

// passOutput is what one pass did. wall and cpu cover the program's work
// only, not the benchmark's own checks and bookkeeping.
type passOutput struct {
	wall, cpu time.Duration
	recs      []engine.Record   // one per job
	extra     map[string]string // digests of outputs that are not jobs
	problems  []string          // failed checks not tied to a job
	stolen    float64           // see sample.Stolen
}

var workloads = []workloadDef{
	{"paper-tight", "the copying panel near each benchmark's minimum heap plus Table 1's searches: collection dominates host time", setupPaper(true)},
	{"paper-roomy", "the same panel at 2.5x-3x the minimum heap: collections are rare, mutator-side work dominates", setupPaper(false)},
	{"server-mixed", "the steady/flip/growth server workload on six presets, flat and on 2 sharded mutators", setupServer},
	{"farm-grid", "120 short jobs over 2 worker processes, then Verify with replay and Report: IPC, ledger and hashing dominate", setupFarm},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// configFunc returns the harness.ConfigFunc of a collectors.Parse spec.
// The spec is checked once here, so the returned function cannot fail.
func configFunc(spec string, env harness.Env) (harness.ConfigFunc, error) {
	opts := func(h int) collectors.Options {
		return collectors.Options{HeapBytes: h, FrameBytes: env.FrameBytes, PhysMemBytes: env.PhysMemBytes}
	}
	if _, err := collectors.Parse(spec, opts(warmHeap)); err != nil {
		return nil, err
	}
	return func(h int) core.Config {
		cfg, err := collectors.Parse(spec, opts(h))
		if err != nil {
			panic(fmt.Sprintf("perfbench: spec %q parsed once and failed later: %v", spec, err))
		}
		return cfg
	}, nil
}

func configFuncs(specs []string, env harness.Env) ([]harness.ConfigFunc, error) {
	out := make([]harness.ConfigFunc, len(specs))
	for i, s := range specs {
		f, err := configFunc(s, env)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

func isMarkRegion(spec string) bool {
	return spec == "immix" || strings.HasSuffix(spec, "-mr")
}

// roundHeap rounds f*min up to whole frames, as farm.BuildSpecs does.
func roundHeap(f float64, min, frame int) int {
	h := int(f * float64(min))
	return (h + frame - 1) / frame * frame
}

// resultJob turns a run's outcome into an engine job's return values the
// way harness.Executor does.
func resultJob(res *harness.Result, err error) (any, engine.Outcome, error) {
	if err != nil {
		return nil, "", err
	}
	out := engine.OK
	switch {
	case res.OOM:
		out = engine.OOM
	case res.Aborted:
		out = engine.Budget
	}
	payload, err := harness.MarshalRunPayload(res)
	if err != nil {
		return nil, "", err
	}
	return json.RawMessage(payload), out, nil
}

// task is one job of a pass: the untraced engine job, which calls the
// program's public entry point, and its traced replica.
type task struct {
	job  engine.Job
	name string // the public call the job makes, for its span
	// traced runs the replica with probes and folds them into l; it
	// returns the result and the wall time of the mutator body. Nil runs
	// job.Run under a span in traced passes too.
	traced func(l *layers) (*harness.Result, time.Duration, error)
}

// runTasks runs the tasks through a fresh single-worker engine: one
// caller, the next job starting when the previous one finishes.
func runTasks(tasks []task, tr *tracer, parent int) ([]engine.Record, error) {
	eng := engine.New(engine.Config{Workers: 1})
	defer eng.Close()
	jobs := make([]engine.Job, len(tasks))
	for i := range tasks {
		t := tasks[i]
		jobs[i] = t.job
		if tr == nil {
			continue
		}
		jobs[i].Run = func() (any, engine.Outcome, error) {
			_, end := tr.begin(parent, t.name, t.job.Key.String())
			if t.traced == nil {
				defer end()
				return t.job.Run()
			}
			var ms0 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			res, body, err := t.traced(&tr.l)
			d := end()
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			tr.l.runs++
			tr.l.runTime += d
			tr.l.mallocs += ms1.Mallocs - ms0.Mallocs
			tr.l.harnessSelf += d - body
			return resultJob(res, err)
		}
	}
	t0 := time.Now()
	recs, err := eng.Run(jobs)
	if tr != nil && err == nil {
		d := time.Since(t0)
		for _, r := range recs {
			d -= time.Duration(r.DurationMS * float64(time.Millisecond))
		}
		tr.l.dispatch += d
		tr.l.dispatchJobs += len(recs)
	}
	return recs, err
}

// ---- paper-tight and paper-roomy ----

type paperInst struct {
	tight   bool
	env     harness.Env
	benches []*workload.Benchmark
	makes   []harness.ConfigFunc
	appel   harness.ConfigFunc
	mins    map[string]int // roomy: the fixed inputs; tight: found per pass
}

func setupPaper(tight bool) func(int64, string) (instance, error) {
	return func(seed int64, _ string) (instance, error) {
		env := harness.EnvForScale(paperScale)
		env.Seed = seed
		makes, err := configFuncs(paperPanel, env)
		if err != nil {
			return nil, err
		}
		w := &paperInst{tight: tight, env: env, benches: workload.All(), makes: makes, appel: makes[0]}
		if !tight {
			if w.mins, err = minHeapsFor(seed, w.appel, env, w.benches); err != nil {
				return nil, err
			}
		}
		for _, b := range w.benches {
			if _, err := harness.RunOne(w.appel(warmHeap), b, env); err != nil {
				return nil, err
			}
		}
		return w, nil
	}
}

// minHeapsFor returns the Appel minimum heaps of the paper workloads:
// the stored inputs of a shipped seed, computed for any other.
func minHeapsFor(seed int64, appel harness.ConfigFunc, env harness.Env, benches []*workload.Benchmark) (map[string]int, error) {
	if m, ok := refMinHeaps(seed); ok {
		return m, nil
	}
	return harness.FindMinHeaps(appel, benches, env, nil)
}

type minPayload struct {
	MinHeapBytes int `json:"min_heap_bytes"`
}

// minHeapTasks are Table 1's searches, one engine job per benchmark.
func (w *paperInst) minHeapTasks() []task {
	tasks := make([]task, len(w.benches))
	for i, b := range w.benches {
		b := b
		tasks[i] = task{name: "harness.FindMinHeap", job: engine.Job{
			Key: engine.Key{Experiment: "minheap", Collector: "appel", Benchmark: b.Name},
			Run: func() (any, engine.Outcome, error) {
				m, err := harness.FindMinHeap(w.appel, b, w.env)
				if err != nil {
					return nil, "", err
				}
				return minPayload{MinHeapBytes: m}, engine.OK, nil
			},
		}}
	}
	return tasks
}

func (w *paperInst) specs(mins map[string]int) []harness.RunSpec {
	factors := roomyFactors
	exp := "roomy"
	if w.tight {
		factors, exp = tightFactors, "tight"
	}
	var specs []harness.RunSpec
	for _, b := range w.benches {
		for ci, mk := range w.makes {
			for _, f := range factors {
				hb := roundHeap(f, mins[b.Name], w.env.FrameBytes)
				specs = append(specs, harness.RunSpec{
					Key:  engine.Key{Experiment: exp, Collector: paperPanel[ci], Benchmark: b.Name, HeapBytes: hb},
					Make: mk, Bench: b, Env: w.env,
				})
			}
		}
	}
	return specs
}

func (w *paperInst) pass(_ int, tr *tracer, parent int) (*passOutput, error) {
	out := &passOutput{}
	m := startMeter()
	mins := w.mins
	if w.tight {
		recs, err := runTasks(w.minHeapTasks(), tr, parent)
		if err != nil {
			return nil, err
		}
		mins = map[string]int{}
		for i, r := range recs {
			var p minPayload
			if r.Outcome.Completed() && json.Unmarshal(r.Payload, &p) == nil && p.MinHeapBytes > 0 {
				mins[w.benches[i].Name] = p.MinHeapBytes
			} else {
				return nil, fmt.Errorf("perfbench: min heap search for %s: %s %s", w.benches[i].Name, r.Outcome, r.Error)
			}
		}
		out.recs = recs
	}
	specs := w.specs(mins)
	var recs []engine.Record
	var err error
	if tr == nil {
		x := harness.NewExecutor(engine.Config{Workers: 1})
		_, recs, err = x.RunAll(specs)
		if cerr := x.Close(); err == nil {
			err = cerr
		}
	} else {
		tasks := make([]task, len(specs))
		for i := range specs {
			sp := specs[i]
			mr := isMarkRegion(sp.Key.Collector)
			tasks[i] = task{name: "harness.RunOne", job: engine.Job{Key: sp.Key}, traced: func(l *layers) (*harness.Result, time.Duration, error) {
				p := &probe{}
				res, err := tracedRunOne(sp.Make(sp.Key.HeapBytes), sp.Bench, sp.Env, p)
				l.addProbe(p, false, mr)
				return res, p.body, err
			}}
		}
		recs, err = runTasks(tasks, tr, parent)
	}
	if err != nil {
		return nil, err
	}
	out.wall, out.cpu = m.stop()
	out.recs = append(out.recs, recs...)
	return out, nil
}

// ---- server-mixed ----

type serverInst struct {
	env   harness.Env
	sc    server.Config
	slo   server.SLO
	makes []harness.ConfigFunc
}

func setupServer(seed int64, _ string) (instance, error) {
	env := harness.EnvForScale(serverScale)
	env.Seed = seed
	sc := server.Scaled(serverScale)
	sc.Seed = seed
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	slo, err := server.ParseSLO(experiments.DefaultServerSLO)
	if err != nil {
		return nil, err
	}
	makes, err := configFuncs(serverPanel, env)
	if err != nil {
		return nil, err
	}
	w := &serverInst{env: env, sc: sc, slo: slo, makes: makes}
	for _, mk := range makes {
		if _, err := harness.RunServer(mk(w.heapBytes(serverFactors[1])), sc, slo, env); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// heapBytes sizes the heap as a multiple of the store's estimated live
// size, as the server experiment does.
func (w *serverInst) heapBytes(f float64) int {
	frame := w.env.FrameBytes
	return (int(float64(w.sc.EstLiveBytes())*f)/frame + 1) * frame
}

func (w *serverInst) tasks() []task {
	var tasks []task
	for ci, mk := range w.makes {
		spec := serverPanel[ci]
		mr := isMarkRegion(spec)
		for _, f := range serverFactors {
			hb := w.heapBytes(f)
			for _, n := range []int{0, shardCount} {
				env := w.env
				env.Mutators = n
				key := engine.Key{Experiment: "server-flat", Collector: spec, Benchmark: "server", HeapBytes: hb}
				name := "harness.RunServer"
				if n > 0 {
					key.Experiment = "server-sharded"
					name = "harness.RunServerSharded"
				}
				t := task{name: name, job: engine.Job{Key: key, Run: func() (any, engine.Outcome, error) {
					return resultJob(harness.RunServer(mk(hb), w.sc, w.slo, env))
				}}}
				if n == 0 {
					t.traced = func(l *layers) (*harness.Result, time.Duration, error) {
						p := &probe{}
						res, err := tracedRunServer(mk(hb), w.sc, w.slo, env, p)
						l.addProbe(p, true, mr)
						l.addRequests(res)
						return res, p.body, err
					}
				} else {
					t.traced = func(l *layers) (*harness.Result, time.Duration, error) {
						probes := make([]*probe, n)
						for i := range probes {
							probes[i] = &probe{}
						}
						res, ss, err := tracedRunServerSharded(mk(hb), w.sc, w.slo, env, probes)
						for _, p := range probes {
							l.addProbe(p, true, mr)
						}
						l.addRequests(res)
						l.rounds += ss.rounds
						l.polls += ss.polls
						l.routed += ss.routed
						return res, ss.run, err
					}
				}
				tasks = append(tasks, t)
			}
		}
	}
	return tasks
}

func (l *layers) addRequests(res *harness.Result) {
	if res != nil && res.Server != nil {
		l.requests += res.Server.Overall.Requests
		l.writes += res.Server.Overall.Writes
	}
}

func (w *serverInst) pass(_ int, tr *tracer, parent int) (*passOutput, error) {
	m := startMeter()
	recs, err := runTasks(w.tasks(), tr, parent)
	if err != nil {
		return nil, err
	}
	out := &passOutput{recs: recs}
	out.wall, out.cpu = m.stop()
	return out, nil
}

// ---- farm-grid ----

type farmInst struct {
	grid farm.Grid
	work string
}

func setupFarm(seed int64, work string) (instance, error) {
	env := harness.EnvForScale(farmScale)
	env.Seed = seed
	grid := farm.Grid{Collectors: paperPanel, Benchmarks: farmBenches, HeapFactors: farmFactors, Env: env}
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	for _, b := range grid.Benchmarks {
		warm := farm.JobSpec{Collector: grid.Collectors[0], Benchmark: b, HeapBytes: warmHeap, Env: env}
		if _, _, err := farm.ExecuteSpec(warm); err != nil {
			return nil, err
		}
	}
	return &farmInst{grid: grid, work: work}, nil
}

func (w *farmInst) pass(idx int, tr *tracer, parent int) (*passOutput, error) {
	dir := filepath.Join(w.work, fmt.Sprintf("farm-%d-%d-%d", os.Getpid(), w.grid.Env.Seed, idx))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	span := func(name string) func() time.Duration {
		if tr == nil {
			t0 := time.Now()
			return func() time.Duration { return time.Since(t0) }
		}
		_, end := tr.begin(parent, name, "")
		return end
	}
	out := &passOutput{extra: map[string]string{}}
	m := startMeter()
	end := span("farm.Run")
	sum, err := farm.Run(farm.Config{Grid: w.grid, OutDir: dir, Workers: farmWorkers})
	end()
	if err != nil {
		return nil, err
	}
	end = span("farm.Verify")
	vr, verr := farm.Verify(dir, farmReplay, nil)
	verifyTime := end()
	end = span("farm.Report")
	report, rerr := farm.Report(dir)
	end()
	out.wall, out.cpu = m.stop()

	if sum.Failed > 0 || sum.WorkerCrashes > 0 {
		out.problems = append(out.problems, fmt.Sprintf("farm: %d failed jobs, %d worker crashes", sum.Failed, sum.WorkerCrashes))
	}
	switch {
	case verr != nil:
		out.problems = append(out.problems, "farm verify: "+verr.Error())
	case vr.Replayed != farmReplay || vr.BinaryMismatches != 0 || vr.Entries != sum.LedgerEntries:
		out.problems = append(out.problems, fmt.Sprintf("farm verify: %+v for %d ledger entries", *vr, sum.LedgerEntries))
	}
	if rerr != nil {
		out.problems = append(out.problems, "farm report: "+rerr.Error())
	} else {
		out.extra["farm/report"] = harness.PayloadDigest([]byte(report))
	}
	if out.recs, err = readRecords(filepath.Join(dir, farm.CheckpointFile)); err != nil {
		return nil, err
	}
	entries, err := farm.ReadLedger(filepath.Join(dir, farm.LedgerFile))
	if err != nil {
		return nil, err
	}
	out.problems = append(out.problems, checkLedger(out.recs, entries)...)
	if tr != nil {
		var jobTime time.Duration
		for _, r := range out.recs {
			if r.Key.Experiment == farm.Experiment {
				jobTime += time.Duration(r.DurationMS * float64(time.Millisecond))
			}
		}
		if err := w.traceLayers(&tr.l, entries, dir, jobTime, verifyTime, sum); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkLedger holds the ledger's result digests to the checkpoint's
// payloads: every completed grid job has exactly one matching entry.
func checkLedger(recs []engine.Record, entries []farm.Entry) []string {
	byKey := map[string]string{}
	for _, e := range entries {
		byKey[e.Spec.Key().String()] = e.ResultDigest
	}
	var problems []string
	grid := 0
	for _, r := range recs {
		if r.Key.Experiment != farm.Experiment {
			continue
		}
		grid++
		if d, ok := byKey[r.Key.String()]; !ok || d != harness.PayloadDigest(r.Payload) {
			problems = append(problems, "farm ledger: no matching entry for "+r.Key.String())
		}
	}
	if grid != len(entries) {
		problems = append(problems, fmt.Sprintf("farm ledger: %d entries for %d grid jobs", len(entries), grid))
	}
	return problems
}

// traceLayers measures the farm's own layers after a traced pass: the
// same specs executed in process, to set against jobTime, the time the
// farm's engine saw its grid jobs take over the worker processes; and
// the entries appended to a fresh ledger.
func (w *farmInst) traceLayers(l *layers, entries []farm.Entry, dir string, jobTime, verifyTime time.Duration, sum *farm.Summary) error {
	var exec time.Duration
	for _, e := range entries {
		t0 := time.Now()
		if _, _, err := farm.ExecuteSpec(e.Spec); err != nil {
			return err
		}
		exec += time.Since(t0)
	}
	ledger, _, err := farm.OpenLedger(filepath.Join(dir, "append-probe.jsonl"))
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, e := range entries {
		e.Index, e.PrevHash, e.Hash = 0, "", ""
		if _, err := ledger.Append(e); err != nil {
			ledger.Close()
			return err
		}
	}
	l.appendTime += time.Since(t0)
	if err := ledger.Close(); err != nil {
		return err
	}
	l.appends += len(entries)
	l.farmJobTime += jobTime
	l.farmExecute += exec
	l.farmJobs += len(entries)
	l.farmVerify += verifyTime
	l.spawns += sum.WorkerSpawns
	return nil
}

// readRecords reads an engine checkpoint file.
func readRecords(path string) ([]engine.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []engine.Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 64<<20)
	for sc.Scan() {
		var r engine.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("perfbench: %s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}
