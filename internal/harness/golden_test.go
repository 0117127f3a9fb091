package harness

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/server"
	"beltway/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/run_digests.golden from the current code")

const goldenPath = "testdata/run_digests.golden"

// goldenCase is one pinned run: a name, the run itself, and a check
// that the run still exercises what the case is there for (an OOM
// point must OOM, an abort must abort), so the golden cannot silently
// stop covering it.
type goldenCase struct {
	name  string
	run   func() (*Result, error)
	check func(*Result) error
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	base := testEnv()
	classic := func(spec, bench string, heapKB int, env Env) func() (*Result, error) {
		return func() (*Result, error) {
			cfg, err := collectors.Parse(spec, collectors.Options{
				HeapBytes: heapKB << 10, FrameBytes: env.FrameBytes, PhysMemBytes: env.PhysMemBytes})
			if err != nil {
				return nil, err
			}
			return RunOne(cfg, workload.Get(bench), env)
		}
	}
	srv := func(spec string, env Env) func() (*Result, error) {
		return func() (*Result, error) {
			sc := serverTestConfig()
			cfg := serverCollector(t, spec, sc, env, 4)
			slo := server.SLO{Targets: []server.Target{{Quantile: "p99", Cost: 1e9}, {Quantile: "max", Cost: 1}}}
			return RunServer(cfg, sc, slo, env)
		}
	}
	want := func(what string, ok func(*Result) bool) func(*Result) error {
		return func(r *Result) error {
			if !ok(r) {
				return fmt.Errorf("run is no longer %s", what)
			}
			return nil
		}
	}

	var cases []goldenCase
	for _, spec := range []string{"appel", "ss", "25.25", "25.25.100", "25.25-mr", "immix"} {
		for _, bench := range []string{"jess", "db", "javac", "pseudojbb"} {
			for _, kb := range []int{1536, 3072} {
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s/%s/%dKB", spec, bench, kb),
					run:  classic(spec, bench, kb, base),
				})
			}
		}
	}

	budget := base
	budget.CostBudget = 2_000_000
	policy := base
	policy.Policy = "slo"
	faults := base
	faults.FaultSeed = 1
	degrade := base
	degrade.Degrade = true
	pretenure := base
	pretenure.Pretenure = true
	tele := base
	tele.Telemetry = true
	two := base
	two.Mutators = 2

	srvEnv := serverTestEnv()
	srvPlain := srvEnv
	srvPlain.Telemetry = false
	srvTwo := srvEnv
	srvTwo.Mutators = 2
	srvPolicy := srvEnv
	srvPolicy.Policy = "slo"

	cases = append(cases,
		goldenCase{name: "oom/25.25/pseudojbb/1024KB", run: classic("25.25", "pseudojbb", 1024, base),
			check: want("an OOM point", func(r *Result) bool { return r.OOM })},
		goldenCase{name: "budget/25.25/jess/1536KB", run: classic("25.25", "jess", 1536, budget),
			check: want("a budget abort", func(r *Result) bool { return r.Aborted })},
		goldenCase{name: "policy-slo/25.25/jess/3072KB", run: classic("25.25", "jess", 3072, policy),
			check: want("adaptive", func(r *Result) bool { return r.Policy != nil })},
		goldenCase{name: "faults/25.25.100/jess/1536KB", run: classic("25.25.100", "jess", 1536, faults)},
		goldenCase{name: "degrade/25.25.100/pseudojbb/1536KB", run: classic("25.25.100", "pseudojbb", 1536, degrade)},
		goldenCase{name: "pretenure/25.25.100/pseudojbb/3072KB", run: classic("25.25.100", "pseudojbb", 3072, pretenure)},
		goldenCase{name: "telemetry/appel/jess/1536KB", run: classic("appel", "jess", 1536, tele),
			check: want("carrying telemetry", func(r *Result) bool { return r.Telemetry != nil })},
		goldenCase{name: "mutators2/25.25.100/jess/3072KB", run: classic("25.25.100", "jess", 3072, two),
			check: want("sharded", func(r *Result) bool { return r.Mutators == 2 })},
		goldenCase{name: "mutators2-oom/25.25.100/pseudojbb/1536KB", run: classic("25.25.100", "pseudojbb", 1536, two),
			check: want("a sharded OOM point", func(r *Result) bool { return r.Mutators == 2 && r.OOM })},
		goldenCase{name: "server/25.25/telemetry", run: srv("25.25", srvEnv),
			check: want("a server run with telemetry", func(r *Result) bool { return r.Server != nil && r.Telemetry != nil })},
		goldenCase{name: "server/25.25/plain", run: srv("25.25", srvPlain),
			check: want("a server run without telemetry", func(r *Result) bool { return r.Server != nil && r.Telemetry == nil })},
		goldenCase{name: "server/fixed:25/policy-slo", run: srv("fixed:25", srvPolicy),
			check: want("an adaptive server run", func(r *Result) bool { return r.Server != nil && r.Policy != nil })},
		goldenCase{name: "server/immix/mutators2", run: srv("immix", srvTwo),
			check: want("a sharded server run", func(r *Result) bool { return r.Server != nil && r.Mutators == 2 })},
	)
	return cases
}

// TestRunDigestGolden pins the payload digest of every run in a preset ×
// benchmark × heap matrix plus the environment features that change how
// a run is set up (OOM, cost-budget abort, adaptive policy, fault
// injection, degradation, pretenuring, telemetry, two mutators, server
// runs with and without telemetry). A change to how runs are built or
// aggregated must leave every digest as it is. Regenerate with
// `go test ./internal/harness -run TestRunDigestGolden -update` only
// when a change is meant to alter simulated output.
func TestRunDigestGolden(t *testing.T) {
	cases := goldenCases(t)
	got := make(map[string]string, len(cases))
	var names []string
	for _, c := range cases {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.check != nil {
			if err := c.check(res); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		d, err := ResultDigest(res)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = d
		names = append(names, c.name)
	}

	if *updateGolden {
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d runs, the matrix %d", len(want), len(got))
	}
	for _, n := range names {
		if want[n] != got[n] {
			t.Errorf("%s: digest %s, golden %s", n, got[n], want[n])
		}
	}
}
