package gc

import (
	"fmt"

	"beltway/internal/heap"
)

// Handle is a stable reference to a root slot. Because collections move
// objects, mutator code must never hold a heap.Addr across a potential
// collection point; it holds a Handle and rereads the address. This is
// the moral equivalent of the stack maps and registers a real VM scans.
//
// The zero Handle is NilHandle, so zero-valued fields and map misses are
// harmless.
type Handle int32

// NilHandle is the zero, empty handle; Get on it returns heap.Nil.
const NilHandle Handle = 0

// RootSet is the mutator's root table: a growable array of address slots
// plus a mark stack discipline (scopes) for temporaries. Collectors scan
// every live slot and update it in place when the referent moves.
type RootSet struct {
	slots  []heap.Addr
	inUse  []bool
	epochs []uint32 // incarnation counter per slot; bumps on free-list reuse
	free   []int32
	// scoped is one stack of the handles to release at PopScope, for all
	// open scopes; marks[i] is where scope i's entries begin. A flat
	// stack keeps steady-state scopes free of allocation.
	scoped []scopedRef
	marks  []int32
}

// scopedRef pins a scope entry to one incarnation of its slot. A handle
// value is an index, so after Remove frees the slot and the free list
// hands the index out again, the same Handle names a different root;
// the epoch lets PopScope release exactly the incarnation it registered
// and skip stale entries. (Found by differential fuzzing: release inside
// a scope, then a global allocation reusing the slot, then PopScope
// silently killed the global root.)
type scopedRef struct {
	h     Handle
	epoch uint32
}

// NewRootSet returns an empty root set.
func NewRootSet() *RootSet {
	return &RootSet{}
}

// Add registers a new root holding a (possibly Nil) address and returns
// its handle. Roots added inside a scope are released by the matching
// PopScope; roots added outside any scope are global and live until
// Remove.
func (r *RootSet) Add(a heap.Addr) Handle {
	idx := r.addSlot(a)
	h := Handle(idx + 1)
	if len(r.marks) > 0 {
		r.scoped = append(r.scoped, scopedRef{h, r.epochs[idx]})
	}
	return h
}

// AddGlobal registers a root that ignores the scope discipline: it lives
// until Remove even when created inside a scope. Long-lived structures
// built inside transaction scopes use this.
func (r *RootSet) AddGlobal(a heap.Addr) Handle {
	return Handle(r.addSlot(a) + 1)
}

func (r *RootSet) addSlot(a heap.Addr) int32 {
	if n := len(r.free); n > 0 {
		idx := r.free[n-1]
		r.free = r.free[:n-1]
		r.slots[idx] = a
		r.inUse[idx] = true
		r.epochs[idx]++
		return idx
	}
	r.slots = append(r.slots, a)
	r.inUse = append(r.inUse, true)
	r.epochs = append(r.epochs, 0)
	return int32(len(r.slots) - 1)
}

// Remove releases a root handle.
func (r *RootSet) Remove(h Handle) {
	if !r.valid(h) {
		panic(fmt.Sprintf("gc: Remove of invalid handle %d", h))
	}
	idx := int32(h) - 1
	r.slots[idx] = heap.Nil
	r.inUse[idx] = false
	r.free = append(r.free, idx)
}

// Get returns the current address held by h. It must be reread after any
// potential collection point.
func (r *RootSet) Get(h Handle) heap.Addr {
	if h == NilHandle {
		return heap.Nil
	}
	if !r.valid(h) {
		panic(fmt.Sprintf("gc: Get of invalid handle %d", h))
	}
	return r.slots[h-1]
}

// Set stores an address into root h. Root stores need no write barrier:
// roots are scanned in full at every collection, exactly as in the paper.
func (r *RootSet) Set(h Handle, a heap.Addr) {
	if !r.valid(h) {
		panic(fmt.Sprintf("gc: Set of invalid handle %d", h))
	}
	r.slots[h-1] = a
}

// Live reports whether h names a live root: one handed out by Add or
// AddGlobal and not yet released. Decoders of recorded handles check it
// before touching the slot.
func (r *RootSet) Live(h Handle) bool { return r.valid(h) }

func (r *RootSet) valid(h Handle) bool {
	return h >= 1 && int(h) <= len(r.slots) && r.inUse[h-1]
}

// PushScope opens a dynamic scope: every handle Added until the matching
// PopScope is released automatically. Scopes model stack frames of the
// mutator.
func (r *RootSet) PushScope() {
	r.marks = append(r.marks, int32(len(r.scoped)))
}

// PopScope closes the innermost scope, releasing its handles.
func (r *RootSet) PopScope() {
	n := len(r.marks)
	if n == 0 {
		panic("gc: PopScope without PushScope")
	}
	m := r.marks[n-1]
	for _, sr := range r.scoped[m:] {
		if r.valid(sr.h) && r.epochs[sr.h-1] == sr.epoch {
			r.Remove(sr.h)
		}
	}
	r.scoped = r.scoped[:m]
	r.marks = r.marks[:n-1]
}

// Len returns the number of live root slots.
func (r *RootSet) Len() int {
	n := 0
	for _, u := range r.inUse {
		if u {
			n++
		}
	}
	return n
}

// Capacity returns the size of the underlying slot table (scanned slots).
func (r *RootSet) Capacity() int { return len(r.slots) }

// Walk calls fn for every live, non-nil root slot with its current
// address; the slot is updated to fn's return value. Collectors use this
// to trace and forward roots.
func (r *RootSet) Walk(fn func(a heap.Addr) heap.Addr) {
	for i := range r.slots {
		if !r.inUse[i] {
			continue
		}
		if a := r.slots[i]; a != heap.Nil {
			r.slots[i] = fn(a)
		}
	}
}
