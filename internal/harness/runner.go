package harness

import (
	"encoding/json"
	"fmt"

	"beltway/internal/core"
	"beltway/internal/engine"
	"beltway/internal/stats"
	"beltway/internal/workload"
)

// RunSpec is one engine job at the harness level: build the config for
// Key.HeapBytes, run the benchmark under Env, record the Result.
type RunSpec struct {
	Key   engine.Key
	Make  ConfigFunc
	Bench *workload.Benchmark
	Env   Env
}

// RunPayload is the checkpoint payload for one run: the full Result (so a
// resumed run reproduces tables byte-identically, MMU curves included,
// and telemetry snapshots when enabled) plus a pause-distribution summary
// for log consumers that do not want to re-derive it from the raw pause
// list. Exported so engine.Config.OnRecord consumers (live telemetry
// aggregation in cmd/experiments) can decode checkpoint records.
type RunPayload struct {
	Result     *Result          `json:"result"`
	PauseStats stats.PauseStats `json:"pause_stats"`
}

// Executor runs harness measurements through the engine. It may be shared
// across batches — the checkpoint stays open and completed keys are
// remembered — and is safe for concurrent use.
type Executor struct {
	eng *engine.Engine
}

// NewExecutor creates an executor over a new engine.
func NewExecutor(cfg engine.Config) *Executor {
	return &Executor{eng: engine.New(cfg)}
}

// Engine exposes the underlying engine for non-measurement jobs (e.g.
// checkpointed minimum-heap searches).
func (x *Executor) Engine() *engine.Engine { return x.eng }

// Close releases the engine's checkpoint file, if any.
func (x *Executor) Close() error { return x.eng.Close() }

// RunAll executes the specs in parallel and returns one Result per spec,
// in spec order, plus the raw engine records. Results are always non-nil:
// a failed job (panic, timeout, error) yields a placeholder with
// Result.Failure set, so sweeps degrade to a missing point instead of
// dying. Every result — fresh or resumed — round-trips through the JSON
// payload, so output is bit-identical whether a run executed now or was
// loaded from a checkpoint. The returned error is reserved for engine
// infrastructure failures.
func (x *Executor) RunAll(specs []RunSpec) ([]*Result, []engine.Record, error) {
	jobs := make([]engine.Job, len(specs))
	for i := range specs {
		sp := specs[i]
		jobs[i] = engine.Job{Key: sp.Key, Run: func() (any, engine.Outcome, error) {
			payload, out, err := RunJob(sp.Make(sp.Key.HeapBytes), sp.Bench, sp.Env)
			if err != nil {
				return nil, "", err
			}
			return json.RawMessage(payload), out, nil
		}}
	}
	recs, err := x.eng.Run(jobs)
	if err != nil {
		return nil, recs, err
	}
	results := make([]*Result, len(specs))
	for i, rec := range recs {
		if rec.Outcome.Completed() && len(rec.Payload) > 0 {
			var p RunPayload
			if uerr := json.Unmarshal(rec.Payload, &p); uerr == nil && p.Result != nil {
				results[i] = p.Result
			} else {
				results[i] = failedResult(specs[i], fmt.Sprintf("checkpoint decode: %v", uerr))
			}
			continue
		}
		msg := string(rec.Outcome)
		if rec.Error != "" {
			msg += ": " + rec.Error
		}
		results[i] = failedResult(specs[i], msg)
	}
	return results, recs, nil
}

// RunJob runs one benchmark like RunOne and returns what the engine
// records for it: the canonical payload (MarshalRunPayload, shared by the
// executor, the farm worker and ledger replay, so checkpoint bytes are
// the digestable artifact bytes) and the outcome. OOM and budget aborts
// are outcomes; errors are RunOne's.
func RunJob(cfg core.Config, bench *workload.Benchmark, env Env) ([]byte, engine.Outcome, error) {
	res, err := RunOne(cfg, bench, env)
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
	payload, err := MarshalRunPayload(res)
	if err != nil {
		return nil, "", err
	}
	return payload, out, nil
}

func failedResult(sp RunSpec, msg string) *Result {
	return &Result{
		Collector: sp.Key.Collector,
		Benchmark: sp.Bench.Name,
		HeapBytes: sp.Key.HeapBytes,
		Failure:   msg,
	}
}
