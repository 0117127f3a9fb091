package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/workload"
)

// recordJess records the jess benchmark body at a small scale.
func recordJess(tb testing.TB, scale float64) *Trace {
	tb.Helper()
	m := newMutator(tb, smallCfg())
	tr := NewTrace()
	m.SetRecorder(tr)
	ctx := &workload.Ctx{M: m, Types: m.C.Space().Types, Rng: rand.New(rand.NewSource(1)), Scale: scale}
	if err := m.Run(func() { workload.Jess().Body(ctx) }); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// serialize returns WriteTo's bytes for tr.
func serialize(tb testing.TB, tr *Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// A well-formed trace whose operands do not fit the replaying mutator —
// a dead or unknown handle, a slot or word index past the object's end,
// a Pop with no open scope — replays to an error instead of panicking
// out of the mutator.
func TestReplayRejectsBadOperands(t *testing.T) {
	types := heap.NewRegistry()
	node := types.DefineScalar("node", 2, 1)
	words := types.DefineWordArray("words")
	const obj, arr, dead = gc.Handle(1), gc.Handle(2), gc.Handle(9)
	prefix := func() *Trace {
		tr := NewTrace()
		tr.Alloc(node, 0, obj, true, false)
		tr.Alloc(words, 3, arr, true, false)
		return tr
	}
	cases := map[string]func(tr *Trace){
		"setref dead receiver":   func(tr *Trace) { tr.SetRef(dead, 0, obj) },
		"setref dead value":      func(tr *Trace) { tr.SetRef(obj, 0, dead) },
		"setref slot past end":   func(tr *Trace) { tr.SetRef(obj, 2, obj) },
		"setref on word array":   func(tr *Trace) { tr.SetRef(arr, 0, gc.NilHandle) },
		"getref dead receiver":   func(tr *Trace) { tr.GetRef(dead, 0, gc.NilHandle) },
		"getref slot past end":   func(tr *Trace) { tr.GetRef(obj, 7, gc.NilHandle) },
		"setdata word past end":  func(tr *Trace) { tr.SetData(arr, 3, 1) },
		"setdata nil receiver":   func(tr *Trace) { tr.SetData(gc.NilHandle, 0, 1) },
		"getdata word past end":  func(tr *Trace) { tr.GetData(obj, 1) },
		"getdata dead receiver":  func(tr *Trace) { tr.GetData(dead, 0) },
		"release dead handle":    func(tr *Trace) { tr.Release(dead) },
		"release twice":          func(tr *Trace) { tr.Release(obj); tr.Release(obj) },
		"keep dead handle":       func(tr *Trace) { tr.Keep(dead, 3) },
		"pop without push":       func(tr *Trace) { tr.Pop() },
		"pop past pushed scopes": func(tr *Trace) { tr.Push(); tr.Pop(); tr.Pop() },
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			tr := prefix()
			bad(tr)
			err := Replay(tr, newMutator(t, smallCfg()))
			if err == nil || !strings.Contains(err.Error(), "bad operand") {
				t.Fatalf("err = %v, want a bad operand error", err)
			}
		})
	}
	// The same prefix with in-range operands replays cleanly.
	tr := prefix()
	tr.SetRef(obj, 1, obj)
	tr.SetData(arr, 2, 7)
	tr.GetData(obj, 0)
	tr.Push()
	tr.GetRef(obj, 1, 3)
	tr.Pop()
	tr.Keep(obj, 3)
	tr.Release(3)
	if err := Replay(tr, newMutator(t, smallCfg())); err != nil {
		t.Fatalf("in-range operands: %v", err)
	}
}

// FuzzReplay: any byte string either fails to decode or replays to a
// result — an error or OOM included — without panicking, both as a
// serialized trace (ReadFrom) and as a trace payload. Seeded from a
// recorded jess trace and a prefix of it; the payload form lets
// mutations reach replay without having to keep the length header in
// step.
func FuzzReplay(f *testing.F) {
	jess := recordJess(f, 0.002)
	f.Add(jess.buf)
	f.Add(jess.buf[:len(jess.buf)/16])
	f.Add(serialize(f, jess))
	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := ReadFrom(bytes.NewReader(data)); err == nil {
			_ = Replay(tr, newMutator(t, smallCfg()))
		}
		_ = Replay(&Trace{buf: data}, newMutator(t, smallCfg()))
	})
}
