package trace

import (
	"fmt"

	"beltway/internal/gc"
	"beltway/internal/heap"
)

// rawOp is one decoded trace operation: its op byte, varint arguments,
// and (for type definitions) the inline name payload.
type rawOp struct {
	code byte
	args []uint64
	name string
}

// decodeOps parses the trace into its operation list.
func decodeOps(buf []byte) ([]rawOp, error) {
	var ops []rawOp
	argc := map[byte]int{
		opDefineType: 4, opAlloc: 3, opAllocGlobal: 3, opAllocImmortal: 3,
		opSetRef: 3, opGetRef: 3, opRelease: 1, opPush: 0, opPop: 0,
		opSetData: 3, opGetData: 2, opWork: 1, opCollect: 1, opKeep: 2,
		opAllocPretenured: 4,
	}
	d := &decoder{buf: buf}
	for d.more() {
		op := rawOp{code: buf[d.pos]}
		d.pos++
		n, ok := argc[op.code]
		if !ok {
			return nil, fmt.Errorf("trace: unknown op %d at %d", op.code, d.pos-1)
		}
		for i := 0; i < n; i++ {
			op.args = append(op.args, d.uvarint())
		}
		if op.code == opDefineType {
			op.name = string(d.bytes(op.args[3]))
		}
		if d.err != nil {
			return nil, d.err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// AllocBytes sums the heap bytes the trace's allocations request
// (object headers included, immortal boot-image allocations too). A
// differential driver sizes replay heaps from it so that completion is
// configuration-independent and OOM verdicts stay comparable.
func (t *Trace) AllocBytes() (int, error) {
	ops, err := decodeOps(t.buf)
	if err != nil {
		return 0, err
	}
	type shape struct{ kind, refs, words int }
	typeTab := []shape{{}} // index 0 unused
	total := 0
	for _, op := range ops {
		switch op.code {
		case opDefineType:
			typeTab = append(typeTab,
				shape{int(op.args[0]), int(op.args[1]), int(op.args[2])})
		case opAlloc, opAllocGlobal, opAllocImmortal, opAllocPretenured:
			ti := int(op.args[0])
			if ti <= 0 || ti >= len(typeTab) {
				return 0, fmt.Errorf("trace: alloc references undefined type %d", ti)
			}
			sh := typeTab[ti]
			payload := sh.refs + sh.words
			if heap.Kind(sh.kind) != heap.Scalar {
				payload = int(op.args[1])
			}
			total += heap.HeaderBytes + payload*heap.WordBytes
		}
	}
	return total, nil
}

// NumOps returns the number of mutator operations in the trace. Type
// definitions are structural records, not mutator operations, and are
// not counted (nor selectable by Slice).
func (t *Trace) NumOps() (int, error) {
	ops, err := decodeOps(t.buf)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, op := range ops {
		if op.code != opDefineType {
			n++
		}
	}
	return n, nil
}

// Slice builds a new trace containing only the mutator operations whose
// index (in NumOps numbering) satisfies keep, with every handle value
// renumbered to what a fresh gc.RootSet will assign during replay of the
// reduced stream. Type definitions are always retained. It returns an
// error when the reduced stream is not self-contained — a kept operation
// references a handle created by a dropped one, or closes a scope that
// was never opened — which a delta-debugging loop treats as "candidate
// invalid", not as a failure of the trace being minimized.
//
// Renumbering simulates the replay-side root table with an actual
// gc.RootSet, so handle reuse through the free list and scope-release
// order are reproduced exactly; replay's handle-drift assertions then
// hold for any semantics-preserving reduction. (A reduction that changes
// semantics — e.g. dropping the store a later load depends on — replays
// as a drift error and is likewise rejected by the caller's predicate.)
func (t *Trace) Slice(keep func(i int) bool) (out *Trace, err error) {
	defer func() {
		// The RootSet simulation panics on invalid handle use (release
		// after scope exit, unbalanced Pop); that marks the candidate
		// invalid rather than a bug.
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("trace: slice invalid: %v", r)
		}
	}()
	ops, err := decodeOps(t.buf)
	if err != nil {
		return nil, err
	}
	nt := &Trace{}
	rs := gc.NewRootSet()
	// dummy is the address stored in simulated root slots; any non-nil
	// value works since the simulation never dereferences it.
	const dummy = heap.Addr(4)
	remap := map[uint64]uint64{0: 0} // old handle -> renumbered handle
	mapped := func(old uint64) (uint64, error) {
		nh, ok := remap[old]
		if !ok {
			return 0, fmt.Errorf("trace: slice drops handle %d still in use", old)
		}
		return nh, nil
	}
	idx := -1
	for _, op := range ops {
		if op.code == opDefineType {
			nt.emit(opDefineType, op.args...)
			nt.buf = append(nt.buf, op.name...)
			continue
		}
		idx++
		if !keep(idx) {
			continue
		}
		switch op.code {
		case opAlloc, opAllocImmortal:
			nh := uint64(rs.Add(dummy))
			remap[op.args[2]] = nh
			nt.emit(op.code, op.args[0], op.args[1], nh)
		case opAllocGlobal:
			nh := uint64(rs.AddGlobal(dummy))
			remap[op.args[2]] = nh
			nt.emit(op.code, op.args[0], op.args[1], nh)
		case opAllocPretenured:
			var nh uint64
			if op.args[3] == 1 {
				nh = uint64(rs.AddGlobal(dummy))
			} else {
				nh = uint64(rs.Add(dummy))
			}
			remap[op.args[2]] = nh
			nt.emit(op.code, op.args[0], op.args[1], nh, op.args[3])
		case opSetRef:
			obj, err := mapped(op.args[0])
			if err != nil {
				return nil, err
			}
			val, err := mapped(op.args[2])
			if err != nil {
				return nil, err
			}
			nt.emit(opSetRef, obj, op.args[1], val)
		case opGetRef:
			obj, err := mapped(op.args[0])
			if err != nil {
				return nil, err
			}
			nh := uint64(0)
			if op.args[2] != 0 {
				nh = uint64(rs.Add(dummy))
				remap[op.args[2]] = nh
			}
			nt.emit(opGetRef, obj, op.args[1], nh)
		case opRelease:
			h, err := mapped(op.args[0])
			if err != nil {
				return nil, err
			}
			rs.Remove(gc.Handle(h))
			nt.emit(opRelease, h)
		case opPush:
			rs.PushScope()
			nt.emit(opPush)
		case opPop:
			rs.PopScope()
			nt.emit(opPop)
		case opSetData, opGetData:
			obj, err := mapped(op.args[0])
			if err != nil {
				return nil, err
			}
			nt.emit(op.code, append([]uint64{obj}, op.args[1:]...)...)
		case opKeep:
			h, err := mapped(op.args[0])
			if err != nil {
				return nil, err
			}
			nh := uint64(rs.AddGlobal(dummy))
			remap[op.args[1]] = nh
			nt.emit(opKeep, h, nh)
		case opWork, opCollect:
			nt.emit(op.code, op.args...)
		default:
			return nil, fmt.Errorf("trace: slice: unhandled op %d", op.code)
		}
	}
	return nt, nil
}
