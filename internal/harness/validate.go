package harness

import (
	"fmt"

	"beltway/internal/policy"
)

// ValidateEnv checks an Env for feature combinations the runtime will
// reject, so command-line front ends (cmd/beltway, cmd/experiments,
// cmd/bench, cmd/farm) can fail at flag-parse time with one consistent
// message instead of surfacing the error from deep inside a run (or,
// worse, rendering every sweep point as a failed measurement).
func ValidateEnv(env Env) error {
	if env.Mutators < 0 {
		return fmt.Errorf("harness: -mutators must be at least 1 (got %d)", env.Mutators)
	}
	if env.Policy != "" {
		if _, err := policy.Parse(env.Policy); err != nil {
			return fmt.Errorf("harness: -adapt: %w", err)
		}
	}
	return checkMutators(env)
}

// checkMutators rejects the one-mutator-only features on more mutators:
// the fault injector and the controller are single stateful objects in
// the template config, which concurrent shards would share.
func checkMutators(env Env) error {
	if env.Mutators <= 1 {
		return nil
	}
	if env.Policy != "" {
		return fmt.Errorf("harness: adaptive policy (-adapt) is single-mutator only: incompatible with the sharded runtime (-mutators %d)", env.Mutators)
	}
	if env.FaultSeed != 0 {
		return fmt.Errorf("harness: fault injection (-fault-seed) is single-mutator only: incompatible with the sharded runtime (-mutators %d)", env.Mutators)
	}
	return nil
}
