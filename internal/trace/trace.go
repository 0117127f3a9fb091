// Package trace records and replays mutator event streams. A trace
// captures every vm.Mutator operation — allocations, barriered pointer
// stores, data writes, root scope changes, application work — so a
// workload can be executed once and replayed bit-identically against any
// collector configuration: the classic trace-driven methodology of GC
// research (cf. Stefanović's lifetime studies the paper builds on).
//
// Handles are stable across collectors: gc.RootSet assigns them purely
// by operation order, so the recorded handle values replay exactly, and
// the player asserts this as it goes.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/vm"
)

// op codes. The format is a flat varint stream: [op] [args...].
const (
	opDefineType    byte = iota + 1 // kind, refSlots, dataWords, nameLen, name
	opAlloc                         // typeIdx, length, handle
	opAllocGlobal                   // typeIdx, length, handle
	opAllocImmortal                 // typeIdx, length, handle
	opSetRef                        // obj, slot, val (val 0 = nil)
	opGetRef                        // obj, slot, handle (0 = nil result)
	opRelease                       // handle
	opPush
	opPop
	opSetData         // obj, index, value
	opGetData         // obj, index
	opWork            // n
	opCollect         // full (0/1)
	opKeep            // handle, newHandle
	opAllocPretenured // typeIdx, length, handle, global(0/1)
)

// Trace is a recorded mutator event stream.
type Trace struct {
	buf []byte

	// recording state
	types   map[*heap.TypeDesc]uint64
	nTypes  uint64
	stopped bool
}

// NewTrace returns an empty trace ready to record.
func NewTrace() *Trace {
	return &Trace{types: make(map[*heap.TypeDesc]uint64)}
}

// Len returns the encoded size in bytes.
func (t *Trace) Len() int { return len(t.buf) }

func (t *Trace) emit(op byte, args ...uint64) {
	t.buf = append(t.buf, op)
	var tmp [binary.MaxVarintLen64]byte
	for _, a := range args {
		n := binary.PutUvarint(tmp[:], a)
		t.buf = append(t.buf, tmp[:n]...)
	}
}

func (t *Trace) typeIdx(td *heap.TypeDesc) uint64 {
	if i, ok := t.types[td]; ok {
		return i
	}
	t.nTypes++
	i := t.nTypes
	t.types[td] = i
	t.emit(opDefineType, uint64(td.Kind), uint64(td.RefSlots), uint64(td.DataWords),
		uint64(len(td.Name)))
	t.buf = append(t.buf, td.Name...)
	return i
}

// Recorder hooks: called by vm.Mutator when recording is attached.

// Alloc records an allocation and the handle it produced.
func (t *Trace) Alloc(td *heap.TypeDesc, length int, h gc.Handle, global, immortal bool) {
	op := opAlloc
	if immortal {
		op = opAllocImmortal
	} else if global {
		op = opAllocGlobal
	}
	ti := t.typeIdx(td)
	t.emit(op, ti, uint64(length), uint64(h))
}

// SetRef records a barriered pointer store (val may be NilHandle).
func (t *Trace) SetRef(obj gc.Handle, slot int, val gc.Handle) {
	t.emit(opSetRef, uint64(obj), uint64(slot), uint64(val))
}

// GetRef records a pointer load and the handle created for the referent.
func (t *Trace) GetRef(obj gc.Handle, slot int, out gc.Handle) {
	v := uint64(0)
	if out != gc.NilHandle {
		v = uint64(out)
	}
	t.emit(opGetRef, uint64(obj), uint64(slot), v)
}

// Release records an explicit handle release.
func (t *Trace) Release(h gc.Handle) { t.emit(opRelease, uint64(h)) }

// Push records a root-scope open.
func (t *Trace) Push() { t.emit(opPush) }

// Pop records a root-scope close.
func (t *Trace) Pop() { t.emit(opPop) }

// SetData records a data-word store.
func (t *Trace) SetData(obj gc.Handle, i int, v uint32) {
	t.emit(opSetData, uint64(obj), uint64(i), uint64(v))
}

// GetData records a data-word load.
func (t *Trace) GetData(obj gc.Handle, i int) { t.emit(opGetData, uint64(obj), uint64(i)) }

// Work records n units of application work.
func (t *Trace) Work(n int) { t.emit(opWork, uint64(n)) }

// Collect records a forced collection.
func (t *Trace) Collect(full bool) {
	f := uint64(0)
	if full {
		f = 1
	}
	t.emit(opCollect, f)
}

// Keep records a scope-escape re-rooting.
func (t *Trace) Keep(h, out gc.Handle) { t.emit(opKeep, uint64(h), uint64(out)) }

// AllocPretenured records a pretenured allocation.
func (t *Trace) AllocPretenured(td *heap.TypeDesc, length int, h gc.Handle, global bool) {
	g := uint64(0)
	if global {
		g = 1
	}
	ti := t.typeIdx(td)
	t.emit(opAllocPretenured, ti, uint64(length), uint64(h), g)
}

// WriteTo serializes the trace.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(t.buf)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return 0, err
	}
	m, err := w.Write(t.buf)
	return int64(n + m), err
}

// maxTraceBytes caps the payload length a serialized trace may declare.
// Recorded traces stay far below it (a full-scale workload records tens
// of megabytes); a larger claim means a corrupt header.
const maxTraceBytes = 1 << 30

// ReadFrom deserializes a trace written by WriteTo. The payload is read
// incrementally, so a header that declares more bytes than the stream
// holds costs memory in proportion to the bytes actually present.
func ReadFrom(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if size > maxTraceBytes {
		return nil, fmt.Errorf("trace: bad header: declared length %d exceeds %d bytes", size, maxTraceBytes)
	}
	buf, err := io.ReadAll(io.LimitReader(br, int64(size)))
	if err != nil {
		return nil, fmt.Errorf("trace: truncated: %w", err)
	}
	if uint64(len(buf)) < size {
		return nil, fmt.Errorf("trace: truncated: %d of %d bytes: %w", len(buf), size, io.ErrUnexpectedEOF)
	}
	return &Trace{buf: buf}, nil
}

// decoder reads the varint fields of a trace buffer. The first bad field
// sticks in err and every later read returns 0, so a record's fields can
// be read in one go and checked once.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) more() bool { return d.err == nil && d.pos < len(d.buf) }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("trace: bad varint at %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// int reads a field that replays as an int: a count, index, length or
// handle. Recorded values fit in 31 bits; a larger one is corrupt.
func (d *decoder) int() int {
	at := d.pos
	v := d.uvarint()
	if v > math.MaxInt32 && d.err == nil {
		d.err = fmt.Errorf("trace: field %d at %d out of range", v, at)
		return 0
	}
	return int(v)
}

// bytes reads an n-byte inline payload (a type name).
func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.pos) {
		d.err = fmt.Errorf("trace: %d-byte payload at %d overruns the trace", n, d.pos)
		return nil
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b
}

// Replay executes the trace against a fresh mutator. Handle values are
// asserted against the recording as replay proceeds; a mismatch means
// the trace is corrupt or the root-set discipline changed. An
// out-of-memory condition is returned as the gc error, exactly as for a
// live workload run.
func Replay(t *Trace, m *vm.Mutator) error {
	var rerr error
	if err := m.Run(func() { rerr = replayBody(t, m) }); err != nil {
		return err // OOM during replay
	}
	return rerr
}

func replayBody(t *Trace, m *vm.Mutator) error {
	types := m.C.Space().Types
	typeTab := []*heap.TypeDesc{nil} // index 0 unused
	typeAt := func(ti int) *heap.TypeDesc {
		if ti <= 0 || ti >= len(typeTab) {
			return nil
		}
		return typeTab[ti]
	}

	// Operands are checked against the mutator before each op runs, so a
	// well-formed trace naming a dead handle, a slot or word past the
	// object's end, or an unmatched Pop replays to an error, not a panic.
	roots := m.C.Roots()
	space := m.C.Space()
	scopes := 0
	object := func(h gc.Handle) bool { return roots.Live(h) && roots.Get(h) != heap.Nil }
	refSlot := func(h gc.Handle, i int) bool { return object(h) && i < space.NumRefs(roots.Get(h)) }
	dataWord := func(h gc.Handle, i int) bool { return object(h) && i < space.DataWords(roots.Get(h)) }
	badOperand := func(at int) error { return fmt.Errorf("trace: bad operand in record at %d", at) }

	d := &decoder{buf: t.buf}
	for d.more() {
		at := d.pos
		op := d.buf[at]
		d.pos++
		switch op {
		case opDefineType:
			kind, refs, words := d.int(), d.int(), d.int()
			name := string(d.bytes(d.uvarint()))
			if d.err != nil {
				return d.err
			}
			if kind > int(heap.WordArray) || heap.Kind(kind) != heap.Scalar && refs+words != 0 {
				return fmt.Errorf("trace: bad type record at %d", at)
			}
			td := types.Lookup(name)
			if td == nil {
				td = types.Define(name, heap.Kind(kind), refs, words)
			}
			typeTab = append(typeTab, td)
		case opAlloc, opAllocGlobal, opAllocImmortal:
			td, length, want := typeAt(d.int()), d.int(), d.int()
			if d.err != nil {
				return d.err
			}
			if td == nil || td.Kind == heap.Scalar && length != 0 {
				return fmt.Errorf("trace: bad alloc record at %d", at)
			}
			var h gc.Handle
			switch op {
			case opAlloc:
				h = m.Alloc(td, length)
			case opAllocGlobal:
				h = m.AllocGlobal(td, length)
			default:
				h = m.AllocImmortal(td, length)
			}
			if int(h) != want {
				return fmt.Errorf("trace: alloc handle drift: got %d want %d", h, want)
			}
		case opSetRef:
			obj, slot, val := gc.Handle(d.int()), d.int(), gc.Handle(d.int())
			if d.err != nil {
				return d.err
			}
			if !refSlot(obj, slot) || val != gc.NilHandle && !roots.Live(val) {
				return badOperand(at)
			}
			if val == gc.NilHandle {
				m.SetRefNil(obj, slot)
			} else {
				m.SetRef(obj, slot, val)
			}
		case opGetRef:
			obj, slot, want := gc.Handle(d.int()), d.int(), d.int()
			if d.err != nil {
				return d.err
			}
			if !refSlot(obj, slot) {
				return badOperand(at)
			}
			if h := m.GetRef(obj, slot); int(h) != want {
				return fmt.Errorf("trace: getref handle drift: got %d want %d", h, want)
			}
		case opRelease:
			h := gc.Handle(d.int())
			if d.err != nil {
				return d.err
			}
			if !roots.Live(h) {
				return badOperand(at)
			}
			m.Release(h)
		case opPush:
			m.Push()
			scopes++
		case opPop:
			if scopes == 0 {
				return badOperand(at)
			}
			m.Pop()
			scopes--
		case opSetData:
			obj, i, v := gc.Handle(d.int()), d.int(), d.uvarint()
			if d.err != nil {
				return d.err
			}
			if v > math.MaxUint32 {
				return fmt.Errorf("trace: bad setdata record at %d", at)
			}
			if !dataWord(obj, i) {
				return badOperand(at)
			}
			m.SetData(obj, i, uint32(v))
		case opGetData:
			obj, i := gc.Handle(d.int()), d.int()
			if d.err != nil {
				return d.err
			}
			if !dataWord(obj, i) {
				return badOperand(at)
			}
			m.GetData(obj, i)
		case opWork:
			n := d.int()
			if d.err != nil {
				return d.err
			}
			m.Work(n)
		case opCollect:
			f := d.uvarint()
			if d.err != nil {
				return d.err
			}
			m.Collect(f == 1)
		case opKeep:
			h, want := gc.Handle(d.int()), d.int()
			if d.err != nil {
				return d.err
			}
			if h != gc.NilHandle && !roots.Live(h) {
				return badOperand(at)
			}
			if out := m.Keep(h); int(out) != want {
				return fmt.Errorf("trace: keep handle drift: got %d want %d", out, want)
			}
		case opAllocPretenured:
			td, length, want, g := typeAt(d.int()), d.int(), d.int(), d.uvarint()
			if d.err != nil {
				return d.err
			}
			if td == nil || td.Kind == heap.Scalar && length != 0 {
				return fmt.Errorf("trace: bad pretenured alloc record at %d", at)
			}
			var h gc.Handle
			if g == 1 {
				h = m.AllocPretenuredGlobal(td, length)
			} else {
				h = m.AllocPretenured(td, length)
			}
			if int(h) != want {
				return fmt.Errorf("trace: pretenured handle drift: got %d want %d", h, want)
			}
		default:
			return fmt.Errorf("trace: unknown op %d at %d", op, at)
		}
	}
	return d.err
}
