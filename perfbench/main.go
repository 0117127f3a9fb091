// Command perfbench is the repository's benchmark: the host time it
// takes to regenerate the reproduction's results, end to end and layer by
// layer, over four workloads (see README.md).
//
//	perfbench --workload paper-tight --seed 20020617 --seconds 10 --trace 0
//
// It sets the workload up several times, then repeats whole passes of it
// for --seconds, one job at a time, and prints one JSON object as its
// last line. With --trace 0 that object holds the end-to-end metrics;
// with --trace 1 it alternates untraced and traced passes and holds the
// per-layer metrics. Every job's simulated output is digested and held to
// the stored reference of a shipped seed, or to the first pass otherwise.
//
//	perfbench worker                      (farm worker, spawned by farm.Run)
//	perfbench --write-refs perfbench/refs.json --seed N
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"time"

	"beltway/internal/engine"
	"beltway/internal/farm"
	"beltway/internal/harness"
	"beltway/internal/shard"
)

// setupRepeats is how many times a run sets its workload up, for every
// input seed; setup_s is the median.
const setupRepeats = 5

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := farm.ServeWorker(os.Stdin, os.Stdout, farm.WorkerOpts{}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name      = flag.String("workload", "", "workload to run: paper-tight, paper-roomy, server-mixed or farm-grid")
		seed      = flag.Int64("seed", 20020617, "workload seed")
		seconds   = flag.Float64("seconds", 10, "how long to repeat passes")
		trace     = flag.Int("trace", 0, "1: report per-layer metrics from traced passes")
		work      = flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for farm outputs, results and traces")
		writePath = flag.String("write-refs", "", "recompute the seed's reference entry and write the reference file here")
	)
	flag.Parse()
	if *writePath != "" {
		if err := writeRefs(*writePath, *seed, *work); err != nil {
			fatal(err)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fatal(fmt.Errorf("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1"))
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1, *work)
	if err != nil {
		fatal(err)
	}
	host := collectHost(".", *seed)
	res.Host = &host
	if err := res.save(*work); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res.final())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run measured.
type runResult struct {
	Host     *hostInfo         `json:"host"`
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Traced   bool              `json:"traced"`
	Setup    []sample          `json:"setups"`
	Passes   [][]sample        `json:"passes"` // untraced, [pass][input seed]
	TPasses  [][]sample        `json:"traced_passes,omitempty"`
	SimMB    float64           `json:"pass_sim_mb"` // simulated MB allocated by one pass
	Jobs     int               `json:"jobs_per_pass"`
	Refs     bool              `json:"reference_digests"`
	Problems []string          `json:"problems,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	Spans    []span            `json:"-"`

	attempted, failed int
}

// sample is one timed piece of a run: one set-up, or one input seed's
// part of a pass. Its times are as measured; the metrics take wall times
// net of steal.
type sample struct {
	Wall   float64   `json:"wall_s"`
	CPU    float64   `json:"cpu_s,omitempty"`
	Stolen float64   `json:"stolen"` // share of the machine's CPU time the hypervisor took
	JobMs  []float64 `json:"job_ms,omitempty"`
}

// net is a wall time of the sample less the share the hypervisor stole:
// the time the work would have taken had its CPUs not been taken away.
// On the shared 2-core VM of the baseline, steal comes in episodes of a
// minute or more in which it takes 10-60% of the CPU time and wall times
// double at the same CPU time. The share is set by the other guests, not
// by the program, so the correction favours no commit over another.
func (s sample) net(wall float64) float64 { return wall * (1 - s.Stolen) }

func netWall(s sample) float64 { return s.net(s.Wall) }
func cpuOf(s sample) float64   { return s.CPU }

// columns turns [pass][input seed] samples into each input seed's samples.
func columns(passes [][]sample) [][]sample {
	if len(passes) == 0 {
		return nil
	}
	cols := make([][]sample, len(passes[0]))
	for j := range cols {
		for _, p := range passes {
			cols[j] = append(cols[j], p[j])
		}
	}
	return cols
}

// typical is f's value for a typical pass: the sum over input seeds of
// the median of f over each one's samples, so host noise during one
// input's part of a pass moves only that part's sample.
func typical(cols [][]sample, f func(sample) float64) float64 {
	var sum float64
	for _, col := range cols {
		xs := make([]float64, len(col))
		for i, s := range col {
			xs[i] = f(s)
		}
		sum += median(xs)
	}
	return sum
}

// checker holds every pass's digests to the references or to the first
// pass.
type checker struct {
	want     map[string]string
	fromRefs bool
	r        *runResult
	seed     int64 // the input seed whose outputs this checker holds
}

func (c *checker) note(format string, args ...any) {
	if len(c.r.Problems) < 20 {
		c.r.Problems = append(c.r.Problems, fmt.Sprintf("input seed %d: ", c.seed)+fmt.Sprintf(format, args...))
	}
}

// check counts every job and extra output of a pass as attempted, and as
// failed when it did not complete or its digest differs. The pass's own
// checks count as one more attempt, failed when any of them failed.
func (c *checker) check(pass int, out *passOutput) {
	seen := map[string]bool{}
	got := func(key, digest string) {
		c.r.attempted++
		seen[key] = true
		want, ok := c.want[key]
		switch {
		case !ok && (c.fromRefs || pass > 0):
			c.r.failed++
			c.note("pass %d: unexpected job %s", pass, key)
		case !ok:
			c.want[key] = digest
		case want != digest:
			c.r.failed++
			c.note("pass %d: %s: digest %s, want %s", pass, key, digest, want)
		}
	}
	for _, rec := range out.recs {
		key := rec.Key.String()
		if !rec.Outcome.Completed() {
			c.r.attempted++
			c.r.failed++
			seen[key] = true
			c.note("pass %d: %s: %s %s", pass, key, rec.Outcome, rec.Error)
			continue
		}
		got(key, payloadDigest(rec.Payload))
	}
	for k, v := range out.extra {
		got(k, short(v))
	}
	problems := out.problems
	for k := range c.want {
		if !seen[k] {
			problems = append(problems, "missing "+k)
		}
	}
	c.r.attempted++
	if len(problems) > 0 {
		c.r.failed++
		for _, p := range problems {
			c.note("pass %d: %s", pass, p)
		}
	}
}

func payloadDigest(p []byte) string { return short(harness.PayloadDigest(p)) }

// short cuts a hex digest to the digestLen digits the references keep.
func short(d string) string {
	if len(d) > digestLen {
		return d[:digestLen]
	}
	return d
}

// inputSeeds are the workload seeds a benchmark seed stands for. Each
// pass runs the workload once per input seed, so a run's figures average
// over three inputs rather than hang on one.
func inputSeeds(seed int64) []int64 {
	out := make([]int64, inputsPerSeed)
	for i := range out {
		out[i] = shard.StreamSeed(seed, i)
	}
	return out
}

const inputsPerSeed = 3

func runWorkload(w *workloadDef, seed int64, seconds float64, traced bool, work string) (*runResult, error) {
	r := &runResult{Workload: w.name, Seed: seed, Traced: traced}
	seeds := inputSeeds(seed)
	insts := make([]instance, len(seeds))
	for i := 0; i < setupRepeats; i++ {
		t0, st := time.Now(), readCPUStat()
		for j, s := range seeds {
			in, err := w.setup(s, work)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up for input seed %d: %w", w.name, s, err)
			}
			insts[j] = in
		}
		r.Setup = append(r.Setup, sample{Wall: time.Since(t0).Seconds(), Stolen: st.stolenSince()})
	}
	checkers := make([]*checker, len(seeds))
	r.Refs = true
	for j, s := range seeds {
		c := &checker{want: map[string]string{}, r: r, seed: s}
		if d, ok := refDigests(s, w.name); ok {
			c.want, c.fromRefs = maps.Clone(d), true
		} else {
			r.Refs = false
		}
		checkers[j] = c
	}
	epoch := time.Now()
	tr := newTracer(epoch)
	for pass := 0; ; pass++ {
		tracedPass := traced && pass%2 == 1
		var t *tracer
		parent := 0
		var endPass func() time.Duration
		if tracedPass {
			t = tr
			parent, endPass = tr.begin(0, "pass", fmt.Sprintf("%s/%d", w.name, pass))
		}
		outs := make([]*passOutput, len(insts))
		for j, in := range insts {
			st := readCPUStat()
			out, err := in.pass(pass, t, parent)
			if err != nil {
				return nil, fmt.Errorf("%s: pass %d, input seed %d: %w", w.name, pass, seeds[j], err)
			}
			out.stolen = st.stolenSince()
			outs[j] = out
		}
		if endPass != nil {
			endPass()
		}
		for j, out := range outs {
			checkers[j].check(pass, out)
		}
		r.absorb(outs, tracedPass, tr)
		done := time.Since(epoch).Seconds() >= seconds
		if done && (!traced || pass >= 1) {
			break
		}
	}
	r.Spans = tr.spans
	if traced {
		r.Metrics = layerMetrics(r, &tr.l)
	} else {
		r.Metrics = endToEndMetrics(r)
	}
	return r, nil
}

// absorb records the timings of one pass, made of one output per input
// seed, and for traced passes the simulated counters of its results.
func (r *runResult) absorb(outs []*passOutput, traced bool, tr *tracer) {
	var simBytes uint64
	samples := make([]sample, len(outs))
	jobs := 0
	for j, out := range outs {
		samples[j] = sample{Wall: out.wall.Seconds(), CPU: out.cpu.Seconds(), Stolen: out.stolen}
		jobs += len(out.recs)
		for _, rec := range out.recs {
			if res := decodeResult(rec); res != nil {
				simBytes += res.Counters.BytesAllocated
				if traced {
					tr.l.counters.Add(res.Counters)
				}
			}
		}
	}
	if traced {
		tr.l.passes++
		r.TPasses = append(r.TPasses, samples)
		return
	}
	r.Jobs = jobs
	r.SimMB = float64(simBytes) / (1 << 20)
	for j, out := range outs {
		for _, rec := range out.recs {
			samples[j].JobMs = append(samples[j].JobMs, rec.DurationMS)
			switch rec.Key.Experiment {
			case "server-flat":
				tr.l.flatMs += rec.DurationMS
			case "server-sharded":
				tr.l.shardedMs += rec.DurationMS
			}
		}
	}
	r.Passes = append(r.Passes, samples)
}

func decodeResult(rec engine.Record) *harness.Result {
	if !rec.Outcome.Completed() || len(rec.Payload) == 0 {
		return nil
	}
	var p harness.RunPayload
	if json.Unmarshal(rec.Payload, &p) != nil {
		return nil
	}
	return p.Result
}

// quantile is the exclusive-method quantile of Python's
// statistics.quantiles, interpolating between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1
	switch {
	case pos <= 0:
		return s[0]
	case pos >= float64(len(s)-1):
		return s[len(s)-1]
	}
	i := int(pos)
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// jobMs is the host time of every job of the untraced passes, each net
// of its sample's steal.
func (r *runResult) jobMs() []float64 {
	var out []float64
	for _, p := range r.Passes {
		for _, s := range p {
			for _, ms := range s.JobMs {
				out = append(out, s.net(ms))
			}
		}
	}
	return out
}

func endToEndMetrics(r *runResult) map[string]metric {
	cols, jobs := columns(r.Passes), r.jobMs()
	wall := typical(cols, netWall)
	return map[string]metric{
		"wall_s":       {wall, "s"},
		"cpu_s":        {typical(cols, cpuOf), "s"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
		"setup_s":      {typical([][]sample{r.Setup}, netWall), "s"},
		"job_ms.p50":   {quantile(jobs, 0.5), "ms"},
		"job_ms.p90":   {quantile(jobs, 0.9), "ms"},
		"sim_mb_per_s": {ratio(r.SimMB, wall), "MB/s"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the traced passes' totals into per-pass figures.
func layerMetrics(r *runResult, l *layers) map[string]metric {
	n := float64(max(l.passes, 1))
	per := func(v float64) float64 { return v / n }
	c := l.counters
	m := map[string]metric{
		"core.gc.count":               {per(float64(c.Collections)), "count"},
		"core.gc.host_ms":             {per(ms(l.gc)), "ms"},
		"core.gc.share":               {ratio(float64(l.gc), float64(l.runTime)), "ratio"},
		"core.gc.ns_per_copied_kb":    {ratio(float64(l.gc), float64(l.gcCopied)/1024), "ns/KB"},
		"core.gc.copied_mb":           {per(float64(c.BytesCopied) / (1 << 20)), "MB"},
		"core.gc.full_count":          {per(float64(c.FullCollections)), "count"},
		"core.alloc.calls":            {per(float64(l.allocCalls)), "count"},
		"core.alloc.self_ms":          {per(ms(l.allocEst)), "ms"},
		"core.alloc.ns_per_call":      {ratio(float64(l.allocSelf), float64(l.allocSampled)), "ns"},
		"core.write.calls":            {per(float64(l.writeCalls)), "count"},
		"core.write.ns_per_call":      {ratio(float64(l.write), float64(l.writeSampled)), "ns"},
		"core.barrier.slow_frac":      {ratio(float64(c.BarrierSlowPaths), float64(c.PointerStores)), "ratio"},
		"core.read.calls":             {per(float64(l.readCalls)), "count"},
		"core.read.ns_per_call":       {ratio(float64(l.read), float64(l.readSampled)), "ns"},
		"workload.self_ms":            {per(ms(l.workloadSelf)), "ms"},
		"gc.roots.capacity":           {float64(l.rootsPeak), "count"},
		"harness.mallocs_per_run":     {ratio(float64(l.mallocs), float64(l.runs)), "count"},
		"remset.inserts":              {per(float64(c.RemsetInserts)), "count"},
		"remset.entries_scanned":      {per(float64(c.RemsetEntriesGC)), "count"},
		"heap.frames_mapped":          {per(float64(c.FramesMapped)), "count"},
		"markregion.objects_marked":   {per(float64(c.MRObjectsMarked)), "count"},
		"markregion.frames_evacuated": {per(float64(c.MRFramesEvacuated)), "count"},
		"markregion.gc.host_ms":       {per(ms(l.mrGC)), "ms"},
		"server.requests":             {per(float64(l.requests)), "count"},
		"server.write_frac":           {ratio(float64(l.writes), float64(l.requests)), "ratio"},
		"server.loop.self_ms":         {per(ms(l.loopSelf)), "ms"},
		"shard.rounds":                {per(float64(l.rounds)), "count"},
		"shard.polls":                 {per(float64(l.polls)), "count"},
		"shard.routed_entries":        {per(float64(l.routed)), "count"},
		"shard.overhead_ratio":        {ratio(l.shardedMs, l.flatMs), "ratio"},
		"telemetry.hooks.host_ms":     {per(ms(l.hooks)), "ms"},
		"harness.run.self_ms":         {ratio(ms(l.harnessSelf), float64(l.runs)), "ms"},
		"engine.dispatch_ms":          {ratio(ms(l.dispatch), float64(l.dispatchJobs)), "ms"},
		"farm.job_overhead_ms":        {ratio(ms(l.farmJobTime-l.farmExecute), float64(l.farmJobs)), "ms"},
		"farm.ledger.append_ms":       {ratio(ms(l.appendTime), float64(l.appends)), "ms"},
		"farm.verify_ms":              {per(ms(l.farmVerify)), "ms"},
		"farm.worker_spawns":          {per(float64(l.spawns)), "count"},
		"trace.overhead_ratio":        {ratio(typical(columns(r.TPasses), netWall), typical(columns(r.Passes), netWall)), "ratio"},
	}
	return m
}

// summary is the line printed before the result: what ran, where, and
// with which outcome.
func (r *runResult) summary() map[string]any {
	return map[string]any{
		"host": r.Host, "workload": r.Workload, "seed": r.Seed, "traced": r.Traced,
		"passes": len(r.Passes), "traced_passes": len(r.TPasses), "jobs_per_pass": r.Jobs,
		"job_ms_samples": len(r.jobMs()), "stolen_median": r.stolenMedian(),
		"reference_digests": r.Refs, "problems": r.Problems,
	}
}

// stolenMedian is the median share of CPU time stolen over the set-up
// and untraced pass samples.
func (r *runResult) stolenMedian() float64 {
	var xs []float64
	for _, s := range r.Setup {
		xs = append(xs, s.Stolen)
	}
	for _, p := range r.Passes {
		for _, s := range p {
			xs = append(xs, s.Stolen)
		}
	}
	return median(xs)
}

func (r *runResult) final() map[string]any {
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.Metrics,
	}
}

// save writes the run's full record, and for traced runs its spans, into
// the work directory.
func (r *runResult) save(work string) error {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d", r.Workload, r.Seed)
	if r.Traced {
		b, err := json.Marshal(map[string]any{"host": r.Host, "spans": r.Spans})
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(work, "trace-"+base+".json"), b, 0o644); err != nil {
			return err
		}
		base += "-traced"
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(work, "result-"+base+".json"), b, 0o644)
}
