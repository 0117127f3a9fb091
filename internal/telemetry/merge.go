package telemetry

import "sort"

// MergeRunSnapshots merges per-shard run snapshots into one aggregate
// snapshot. Each shard of a sharded run keeps a private FlightRecorder
// and Registry (hook emission stays single-owner and lock-free); the
// merge happens once, at aggregation:
//
//   - metrics merge through RegistrySnapshot.Merge — counters and
//     histogram buckets add, gauges keep their maximum — so the result
//     is independent of merge order, exactly like the Aggregator;
//   - events interleave by cost-clock Time, ties broken by input
//     (shard) order, and are re-stamped with a fresh Seq so the merged
//     stream is a well-formed recorder stream; a single stream already
//     is one, so its events keep their Seq (a one-shard run reports
//     exactly what a lone recorder would);
//   - dropped-event counts add.
//
// Nil snapshots are skipped; merging zero or all-nil snapshots yields
// an empty snapshot.
func MergeRunSnapshots(snaps ...*RunSnapshot) *RunSnapshot {
	out := &RunSnapshot{Metrics: &RegistrySnapshot{}}
	streams := 0
	for _, s := range snaps {
		if s == nil {
			continue
		}
		streams++
		out.Events = append(out.Events, s.Events...)
		out.DroppedEvents += s.DroppedEvents
		if s.Metrics != nil {
			out.Metrics.Merge(s.Metrics)
		}
	}
	if streams < 2 {
		return out
	}
	sort.SliceStable(out.Events, func(i, j int) bool {
		return out.Events[i].Time < out.Events[j].Time
	})
	for i := range out.Events {
		out.Events[i].Seq = uint64(i + 1)
	}
	return out
}
