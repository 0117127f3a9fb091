package telemetry

import (
	"encoding/json"
	"testing"
)

// wrappedRecorder emits n events into a recorder of capacity c, so that
// with n > c the retained stream starts past Seq 1.
func wrappedRecorder(c, n int, t0 float64) *RunSnapshot {
	rec := NewFlightRecorder(c)
	for i := 0; i < n; i++ {
		rec.Emit(Event{Kind: EvGCBegin, Time: t0 + float64(i), GC: uint64(i + 1)})
	}
	return &RunSnapshot{Events: rec.Events(), DroppedEvents: rec.Dropped(), Metrics: &RegistrySnapshot{
		Counters: map[string]uint64{MetricCollections: uint64(n)},
	}}
}

// TestMergeRunSnapshotsSingleKeepsSeq: one stream (nils aside) is
// already a well-formed recorder stream, so merging it must leave it
// byte-identical: a wrapped recorder's events keep starting at
// Seq Dropped+1.
func TestMergeRunSnapshotsSingleKeepsSeq(t *testing.T) {
	s := wrappedRecorder(4, 10, 0)
	got := MergeRunSnapshots(nil, s, nil)
	if got.Events[0].Seq != 7 || got.DroppedEvents != 6 {
		t.Fatalf("first seq %d, dropped %d; want 7, 6", got.Events[0].Seq, got.DroppedEvents)
	}
	a, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("single-stream merge changed the snapshot:\n got %s\nwant %s", b, a)
	}
}

// TestMergeRunSnapshotsRestampsSeveral: two streams interleave by time
// and are re-sequenced from 1; counters add.
func TestMergeRunSnapshotsRestampsSeveral(t *testing.T) {
	got := MergeRunSnapshots(wrappedRecorder(4, 10, 0), wrappedRecorder(4, 5, 0.5))
	if len(got.Events) != 8 || got.DroppedEvents != 7 {
		t.Fatalf("%d events, %d dropped; want 8, 7", len(got.Events), got.DroppedEvents)
	}
	for i, e := range got.Events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
		if i > 0 && e.Time < got.Events[i-1].Time {
			t.Fatalf("event %d at %v precedes %v", i, e.Time, got.Events[i-1].Time)
		}
	}
	if c := got.Metrics.Counters[MetricCollections]; c != 15 {
		t.Fatalf("collections counter %d, want 15", c)
	}
}
