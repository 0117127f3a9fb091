package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"

	"beltway/internal/farm"
	"beltway/internal/harness"
	"beltway/internal/workload"
)

// TestMain lets farm.Run re-exec the test binary as its worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := farm.ServeWorker(os.Stdin, os.Stdout, farm.WorkerOpts{}); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const defaultSeed = 20020617

// digester returns a function that digests a run's result, failing t on
// any error.
func digester(t *testing.T) func(*harness.Result, error) string {
	return func(res *harness.Result, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		d, err := harness.ResultDigest(res)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
}

// The stored minimum heaps are paper-roomy's fixed inputs; they must be
// what harness.FindMinHeap finds today.
func TestStoredMinHeaps(t *testing.T) {
	if len(refs.Seeds) == 0 {
		t.Fatal("refs.json holds no seeds")
	}
	for key, r := range refs.Seeds {
		var seed int64
		if err := json.Unmarshal([]byte(key), &seed); err != nil {
			t.Fatalf("seed %q: %v", key, err)
		}
		env := harness.EnvForScale(paperScale)
		env.Seed = seed
		appel, err := configFunc("appel", env)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range workload.All() {
			got, err := harness.FindMinHeap(appel, b, env)
			if err != nil {
				t.Fatal(err)
			}
			if want := r.MinHeaps[b.Name]; got != want {
				t.Errorf("seed %d %s: FindMinHeap = %d, stored %d", seed, b.Name, got, want)
			}
		}
	}
}

// The traced runs must produce byte-identical results to the public
// entry points for every preset the workloads use, mark-region and
// sharded server runs included.
func TestTracedRunsKeepDigest(t *testing.T) {
	digest := digester(t)
	env := harness.EnvForScale(paperScale)
	env.Seed = defaultSeed
	mins, ok := refMinHeaps(defaultSeed)
	if !ok {
		t.Fatal("no stored minimum heaps for the default seed")
	}
	bench := workload.Get("javac")
	for _, spec := range paperPanel {
		mk, err := configFunc(spec, env)
		if err != nil {
			t.Fatal(err)
		}
		hb := roundHeap(tightFactors[1], mins[bench.Name], env.FrameBytes)
		want := digest(harness.RunOne(mk(hb), bench, env))
		p := &probe{}
		got := digest(tracedRunOne(mk(hb), bench, env, p))
		if got != want {
			t.Errorf("%s: traced digest %s, want %s", spec, got, want)
		}
		if p.allocCalls == 0 || p.writeCalls == 0 || p.gcCount == 0 || p.body <= 0 {
			t.Errorf("%s: probe saw nothing: %+v", spec, *p)
		}
	}

	w, err := setupServer(defaultSeed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := w.(*serverInst)
	for ci, spec := range serverPanel {
		mk, hb := srv.makes[ci], srv.heapBytes(serverFactors[1])
		want := digest(harness.RunServer(mk(hb), srv.sc, srv.slo, srv.env))
		got := digest(tracedRunServer(mk(hb), srv.sc, srv.slo, srv.env, &probe{}))
		if got != want {
			t.Errorf("%s flat: traced digest %s, want %s", spec, got, want)
		}
		env := srv.env
		env.Mutators = shardCount
		want = digest(harness.RunServer(mk(hb), srv.sc, srv.slo, env))
		probes := []*probe{{}, {}}
		res, ss, err := tracedRunServerSharded(mk(hb), srv.sc, srv.slo, env, probes)
		if got := digest(res, err); got != want {
			t.Errorf("%s sharded: traced digest %s, want %s", spec, got, want)
		}
		if ss.rounds == 0 || probes[1].allocCalls == 0 {
			t.Errorf("%s sharded: shard layer saw nothing: %+v", spec, ss)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every metric the benchmark prints is named validly and declared in
// BENCHMARK.json with the same unit, and every declared metric is printed.
func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	r := &runResult{}
	check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		units := map[string]string{}
		for _, m := range want {
			units[m.Name] = m.Unit
		}
		var names []string
		for name, m := range got {
			names = append(names, name)
			if !metricName.MatchString(name) {
				t.Errorf("%s metric %q: bad name", kind, name)
			}
			if u, ok := units[name]; !ok {
				t.Errorf("%s metric %q is not declared", kind, name)
			} else if u != m.Unit {
				t.Errorf("%s metric %q: unit %q, declared %q", kind, name, m.Unit, u)
			}
		}
		sort.Strings(names)
		if len(got) != len(want) {
			t.Errorf("%s: prints %v, declares %d metrics", kind, names, len(want))
		}
	}
	check("end_to_end", endToEndMetrics(r), decl.EndToEnd)
	check("per_layer", layerMetrics(r, &layers{}), decl.PerLayer)
}

// A digest that differs from the reference is a failed job.
func TestCheckerCountsMismatch(t *testing.T) {
	r := &runResult{}
	c := &checker{want: map[string]string{"a": "1111", "b": "2222"}, fromRefs: true, r: r}
	c.check(0, &passOutput{extra: map[string]string{"a": "1111", "b": "3333"}})
	if r.attempted != 3 || r.failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1", r.attempted, r.failed)
	}
	c.check(1, &passOutput{extra: map[string]string{"a": "1111"}})
	if r.failed != 2 {
		t.Errorf("a missing job is not a failure: failed %d", r.failed)
	}
}

// Wall times and job times are taken net of steal, each input seed's
// median over its passes, summed over input seeds.
func TestNetOfSteal(t *testing.T) {
	a := sample{Wall: 2, Stolen: 0.5, JobMs: []float64{4}}
	b := sample{Wall: 3, JobMs: []float64{6}}
	c := sample{Wall: 1.5, CPU: 9, JobMs: []float64{8}}
	r := &runResult{Passes: [][]sample{{a, b}, {a, c}, {b, b}}}
	// input 0: 1, 1, 3; input 1: 3, 1.5, 3.
	if got := typical(columns(r.Passes), netWall); got != 1+3 {
		t.Errorf("typical wall %v, want 4", got)
	}
	if got := r.jobMs(); len(got) != 6 || got[0] != 2 || got[3] != 8 {
		t.Errorf("job times %v, want six, the first halved", got)
	}
}

// quantile matches Python's statistics.quantiles(values, n=4).
func TestQuantile(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// A short traced run of each workload on the default seed passes its
// output checks: one untraced and one traced pass, both holding the
// reference digests.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			r, err := runWorkload(&w, defaultSeed, 0.001, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Refs || r.failed != 0 || r.attempted == 0 || len(r.Passes) != 1 || len(r.TPasses) != 1 {
				t.Errorf("refs %v attempted %d failed %d passes %d+%d: %v",
					r.Refs, r.attempted, r.failed, len(r.Passes), len(r.TPasses), r.Problems)
			}
		})
	}
}
