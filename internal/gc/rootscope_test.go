package gc

import (
	"testing"

	"beltway/internal/heap"
)

// scriptRootOps drives a root set through nested scopes, early removal,
// global roots added inside scopes and slot reuse across incarnations,
// and returns every handle it was given, in order. Handle values are
// what recorded traces replay against, so they depend on PopScope
// releasing each scope's roots in registration order.
func scriptRootOps(r *RootSet) []Handle {
	var hs []Handle
	add := func(h Handle) Handle {
		hs = append(hs, h)
		return h
	}
	g1 := add(r.AddGlobal(0x10))
	r.PushScope() // A
	a1 := add(r.Add(0x20))
	a2 := add(r.Add(0x30))
	add(r.Add(0x40))
	r.PushScope() // B, nested in A
	add(r.Add(0x50))
	add(r.Add(0x60))
	r.Remove(a2)              // release an outer scope's root early
	gB := add(r.AddGlobal(0)) // reuses a2's slot in a new incarnation
	add(r.Add(0x70))
	r.PopScope() // B
	add(r.Add(0x80))
	add(r.Add(0x90))
	r.PushScope() // C
	r.PushScope() // D, empty
	r.PopScope()  // D
	c1 := add(r.Add(0xa0))
	r.Remove(c1)
	add(r.Add(0xb0)) // reuses c1's slot inside the same scope
	add(r.AddGlobal(0xc0))
	r.PopScope() // C: skips c1's stale entry, releases its reuse
	r.Remove(a1)
	add(r.Add(0xd0)) // reuses a1's slot, registered with A again
	r.Remove(g1)
	r.PopScope() // A: skips a2's stale entry, which gB now holds
	for i := 0; i < 8; i++ {
		add(r.Add(heap.Addr(0x100 + 0x10*i))) // global: drains the free list
	}
	r.Remove(gB)
	add(r.Add(0x200))
	return hs
}

// TestScopeHandleSequence pins the handle sequence of scriptRootOps to
// the one the per-scope-slice root set produced before scopes became
// one flat stack: free-list order, hence every recorded trace, is
// unchanged.
func TestScopeHandleSequence(t *testing.T) {
	want := []Handle{1, 2, 3, 4, 5, 6, 3, 7, 7, 6, 5, 5, 8, 2, 2, 6, 7, 4, 1, 5, 9, 10, 3}
	r := NewRootSet()
	got := scriptRootOps(r)
	if len(got) != len(want) {
		t.Fatalf("got %d handles %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("handle %d = %d, want %d\ngot  %v\nwant %v", i, got[i], want[i], got, want)
		}
	}
	if r.Len() != 10 || r.Capacity() != 10 {
		t.Errorf("Len/Capacity = %d/%d, want 10/10", r.Len(), r.Capacity())
	}
}

// TestScopeSteadyStateZeroAlloc pins scoped roots at zero allocations
// once the root table and scope stack have grown to the working size:
// each scope used to start a fresh slice of its own.
func TestScopeSteadyStateZeroAlloc(t *testing.T) {
	r := NewRootSet()
	r.AddGlobal(0x10)
	if n := testing.AllocsPerRun(100, func() {
		r.PushScope()
		for i := 0; i < 16; i++ {
			r.Add(heap.Addr(0x100 + 4*i))
		}
		r.PushScope()
		r.Add(0x200)
		r.PopScope()
		r.PopScope()
	}); n != 0 {
		t.Errorf("steady-state PushScope/Add/PopScope allocates %v times per cycle, want 0", n)
	}
}
