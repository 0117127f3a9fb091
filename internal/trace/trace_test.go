package trace

import (
	"bytes"
	"math/rand"
	"testing"

	"beltway/internal/collectors"
	"beltway/internal/core"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

func newMutator(t testing.TB, cfg core.Config) *vm.Mutator {
	t.Helper()
	h, err := core.New(cfg, heap.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return vm.New(h)
}

// record runs a scripted workload with recording attached.
func record(t *testing.T, cfg core.Config) *Trace {
	t.Helper()
	m := newMutator(t, cfg)
	tr := NewTrace()
	m.SetRecorder(tr)
	types := m.C.Space().Types
	node := types.DefineScalar("node", 2, 1)
	arr := types.DefineRefArray("arr")
	rng := rand.New(rand.NewSource(7))
	err := m.Run(func() {
		root := m.AllocGlobal(arr, 16)
		boot := m.AllocImmortal(node, 0)
		m.SetRef(boot, 0, root)
		for i := 0; i < 3000; i++ {
			m.Push()
			n := m.Alloc(node, 0)
			m.SetData(n, 0, uint32(i))
			m.SetRef(root, i%16, n)
			if rng.Intn(4) == 0 {
				got := m.GetRef(root, rng.Intn(16))
				if got != 0 && rng.Intn(2) == 0 {
					kept := m.Keep(got)
					m.Release(kept)
				}
			}
			if rng.Intn(16) == 0 {
				m.SetRefNil(root, rng.Intn(16))
			}
			m.Work(3)
			m.Pop()
			if i == 1500 {
				m.Collect(false)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func smallCfg() core.Config {
	return collectors.XX100(25, collectors.Options{HeapBytes: 256 << 10, FrameBytes: 4096})
}

// TestReplayMatchesLiveRun records on one collector and replays on a
// fresh identical collector: every counter must match the recording run
// exactly.
func TestReplayMatchesLiveRun(t *testing.T) {
	tr := record(t, smallCfg())
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}

	m2 := newMutator(t, smallCfg())
	if err := Replay(tr, m2); err != nil {
		t.Fatalf("replay: %v", err)
	}

	m3 := newMutator(t, smallCfg())
	tr3 := NewTrace()
	m3.SetRecorder(tr3)
	if err := Replay(tr, m3); err != nil {
		t.Fatalf("re-recording replay: %v", err)
	}
	// Replaying while re-recording must reproduce the identical trace.
	if !bytes.Equal(encoded(tr), encoded(tr3)) {
		t.Error("re-recorded trace differs from original")
	}
}

// TestReplayOnDifferentCollectors replays one trace against several
// configurations; mutator-side counters (allocation, stores) must agree
// even though collector-side behaviour differs.
func TestReplayOnDifferentCollectors(t *testing.T) {
	tr := record(t, smallCfg())
	o := collectors.Options{HeapBytes: 256 << 10, FrameBytes: 4096}
	var allocs []uint64
	var collections []uint64
	for _, cfg := range []core.Config{
		collectors.BSS(o),
		collectors.XX(25, o),
		collectors.BOFM(25, o),
	} {
		h, err := core.New(cfg, heap.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(h)
		if err := Replay(tr, m); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		allocs = append(allocs, h.Clock().Counters.BytesAllocated)
		collections = append(collections, h.Collections())
	}
	for i := 1; i < len(allocs); i++ {
		if allocs[i] != allocs[0] {
			t.Errorf("allocation volume differs across collectors: %v", allocs)
		}
	}
	// Different policies should actually behave differently somewhere.
	if collections[0] == collections[1] && collections[1] == collections[2] {
		t.Logf("note: all collectors performed %d collections", collections[0])
	}
}

// TestSerializeRoundTrip checks WriteTo/ReadFrom.
func TestSerializeRoundTrip(t *testing.T) {
	tr := record(t, smallCfg())
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(tr), encoded(tr2)) {
		t.Error("round trip changed the trace")
	}
	m := newMutator(t, smallCfg())
	if err := Replay(tr2, m); err != nil {
		t.Fatalf("replay of deserialized trace: %v", err)
	}
}

// TestReadFromRejectsGarbage checks corrupt input handling.
func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte{0xff})); err == nil {
		t.Error("truncated trace accepted")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	// Valid header, garbage body: replay must error, not panic.
	var buf bytes.Buffer
	buf.WriteByte(2) // length 2
	buf.Write([]byte{0xee, 0xee})
	tr, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := newMutator(t, smallCfg())
	if err := Replay(tr, m); err == nil {
		t.Error("garbage trace replayed without error")
	}
}

// encoded exposes the raw bytes for comparison.
func encoded(tr *Trace) []byte {
	var buf bytes.Buffer
	tr.WriteTo(&buf)
	return buf.Bytes()
}
