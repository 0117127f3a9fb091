package heap

import "fmt"

// Object layout, in words:
//
//	W0: header — bits 0..23 type id, bit 31 forwarded flag
//	W1: array length in elements (0 for scalars); when the forwarded flag
//	    is set, W1 instead holds the forwarding address
//	W2: serial — a unique allocation number used by the validation oracle
//	    and for deterministic debugging
//	W3..: reference slots, then data words (per the type descriptor)
//
// The forwarding encoding clobbers W1 exactly the way real copying
// collectors clobber from-space objects: once an object is forwarded its
// old body is unreadable, and only the (flag, forwarding address) pair
// survives.
const (
	headerWords = 3
	// HeaderBytes is the per-object header overhead.
	HeaderBytes = headerWords * WordBytes

	typeMask  = 0x00ffffff
	fwdFlag   = 0x80000000
	hdrLenOff = 1 * WordBytes
	hdrSerOff = 2 * WordBytes
)

// Format writes a fresh object header at addr. The body (slots and data)
// is expected to be zero, which bump allocation into freshly mapped
// frames guarantees.
func (s *Space) Format(addr Addr, t *TypeDesc, length int, serial uint32) {
	if t.Kind == Scalar && length != 0 {
		panic(fmt.Sprintf("heap: scalar %s formatted with length %d", t.Name, length))
	}
	if length < 0 {
		panic("heap: negative array length")
	}
	slab, off := s.slabAt(addr, true)
	slab[off] = uint32(t.ID)
	slab[off+1] = uint32(length)
	slab[off+2] = serial
}

// Header decodes the object header at addr in one pass: its type
// descriptor and array length. This is the accessor the collector's hot
// paths use — one slab resolve and one registry lookup per object,
// instead of one of each per SizeOf/NumRefs/Length call.
func (s *Space) Header(addr Addr) (*TypeDesc, int) {
	slab, off := s.slabAt(addr, false)
	h := slab[off]
	if h&fwdFlag != 0 {
		panic(fmt.Sprintf("heap: TypeOf on forwarded object at %v", addr))
	}
	return s.Types.Get(TypeID(h & typeMask)), int(slab[off+1])
}

// TypeOf returns the type descriptor of the object at addr.
func (s *Space) TypeOf(addr Addr) *TypeDesc {
	t, _ := s.Header(addr)
	return t
}

// Length returns the array length of the object at addr (0 for scalars).
func (s *Space) Length(addr Addr) int { return int(s.Word(addr + hdrLenOff)) }

// Serial returns the allocation serial of the object at addr.
func (s *Space) Serial(addr Addr) uint32 { return s.Word(addr + hdrSerOff) }

// SizeOf returns the total size in bytes of the object at addr.
func (s *Space) SizeOf(addr Addr) int {
	t, length := s.Header(addr)
	return t.Size(length)
}

// NumRefs returns the number of reference slots of the object at addr.
func (s *Space) NumRefs(addr Addr) int {
	t, length := s.Header(addr)
	return t.NumRefs(length)
}

// RefSlotAddr returns the address of reference slot i of the object at
// addr. Remembered sets store these slot addresses.
func (s *Space) RefSlotAddr(addr Addr, i int) Addr {
	return addr + Addr((headerWords+i)*WordBytes)
}

// CheckRefSlot panics unless i is a valid reference slot of the object
// at addr, and returns the slot's address. Barrier code validates once
// through this and then uses raw Word/SetWord on the returned address.
func (s *Space) CheckRefSlot(addr Addr, i int) Addr {
	t, length := s.Header(addr)
	if n := t.NumRefs(length); i < 0 || i >= n {
		panic(fmt.Sprintf("heap: ref slot %d out of range [0,%d) at %v (%s)",
			i, n, addr, t.Name))
	}
	return s.RefSlotAddr(addr, i)
}

// GetRef reads reference slot i of the object at addr.
func (s *Space) GetRef(addr Addr, i int) Addr {
	return Addr(s.Word(s.CheckRefSlot(addr, i)))
}

// SetRef writes reference slot i of the object at addr. This is the raw
// store; write barriers live above this package.
func (s *Space) SetRef(addr Addr, i int, v Addr) {
	s.SetWord(s.CheckRefSlot(addr, i), uint32(v))
}

// dataSlotAddr returns the address of data word i.
func (s *Space) dataSlotAddr(addr Addr, i int) Addr {
	t, length := s.Header(addr)
	var n, base int
	switch t.Kind {
	case Scalar:
		base, n = headerWords+t.RefSlots, t.DataWords
	case WordArray:
		base, n = headerWords, length
	default:
		panic(fmt.Sprintf("heap: data access on %s (%s)", t.Name, t.Kind))
	}
	if i < 0 || i >= n {
		panic(fmt.Sprintf("heap: data word %d out of range [0,%d) at %v (%s)", i, n, addr, t.Name))
	}
	return addr + Addr((base+i)*WordBytes)
}

// GetData reads data word i of the object at addr.
func (s *Space) GetData(addr Addr, i int) uint32 { return s.Word(s.dataSlotAddr(addr, i)) }

// SetData writes data word i of the object at addr.
func (s *Space) SetData(addr Addr, i int, v uint32) { s.SetWord(s.dataSlotAddr(addr, i), v) }

// DataWords returns the number of data words of the object at addr.
func (s *Space) DataWords(addr Addr) int {
	t, length := s.Header(addr)
	switch t.Kind {
	case Scalar:
		return t.DataWords
	case WordArray:
		return length
	default:
		return 0
	}
}

// Forwarded reports whether the object at addr has been forwarded.
func (s *Space) Forwarded(addr Addr) bool { return s.Word(addr)&fwdFlag != 0 }

// Forwarding returns the forwarding address of a forwarded object.
func (s *Space) Forwarding(addr Addr) Addr {
	if !s.Forwarded(addr) {
		panic(fmt.Sprintf("heap: Forwarding on unforwarded object at %v", addr))
	}
	return Addr(s.Word(addr + hdrLenOff))
}

// ForwardingOrSize decodes the header at addr once for the copying
// collector: a forwarded object yields its forwarding address and size
// 0, any other object yields Nil and its size in bytes.
func (s *Space) ForwardingOrSize(addr Addr) (Addr, int) {
	slab, off := s.slabAt(addr, false)
	h := slab[off]
	if h&fwdFlag != 0 {
		return Addr(slab[off+1]), 0
	}
	return Nil, s.Types.Get(TypeID(h & typeMask)).Size(int(slab[off+1]))
}

// CopyAndForward copies the size-byte object at src to dst (already
// reserved, zeroed memory) and marks src forwarded to dst, clobbering
// its W1. The source must not yet be forwarded, and neither range may
// cross a frame edge: collectible objects never span frames, so one that
// does means the heap is corrupt.
func (s *Space) CopyAndForward(src, dst Addr, size int) {
	ss, so := s.slabAt(src, true)
	if ss[so]&fwdFlag != 0 {
		panic(fmt.Sprintf("heap: double forwarding at %v", src))
	}
	s.copyWords(ss, so, dst, size)
	ss[so] |= fwdFlag
	ss[so+1] = uint32(dst)
}

// CopyObject copies the object at src to dst (already reserved, zeroed
// memory) and returns its size in bytes, leaving src unforwarded. Like
// CopyAndForward, it panics if either range crosses a frame edge.
func (s *Space) CopyObject(src, dst Addr) int {
	size := s.SizeOf(src)
	ss, so := s.slabAt(src, false)
	s.copyWords(ss, so, dst, size)
	return size
}

// copyWords copies size bytes starting at word so of slab ss to dst.
func (s *Space) copyWords(ss []uint32, so uint32, dst Addr, size int) {
	nw := uint32(size) >> WordShift
	ds, do := s.slabAt(dst, true)
	if so+nw > uint32(len(ss)) || do+nw > uint32(len(ds)) {
		panic(fmt.Sprintf("heap: copy of %d bytes to %v crosses a frame edge", size, dst))
	}
	copy(ds[do:do+nw], ss[so:so+nw])
}

// RefSlots decodes the header of the object at addr once and returns its
// reference slots as a window onto the frame's slab, with the object's
// size in bytes. Stores into the window are stores into the heap. Each
// frame owns its slab, so the window stays valid until this frame is
// unmapped, however many other frames are mapped meanwhile: a scan loop
// can forward referents and write the slots back without re-resolving
// the frame. The object must not span frames.
func (s *Space) RefSlots(addr Addr) ([]uint32, int) {
	slab, off := s.slabAt(addr, false)
	h := slab[off]
	if h&fwdFlag != 0 {
		panic(fmt.Sprintf("heap: RefSlots on forwarded object at %v", addr))
	}
	t := s.Types.Get(TypeID(h & typeMask))
	length := int(slab[off+1])
	size := t.Size(length)
	if off+uint32(size)>>WordShift > uint32(len(slab)) {
		panic(fmt.Sprintf("heap: object at %v (%d bytes) crosses a frame edge", addr, size))
	}
	first := off + headerWords
	return slab[first : first+uint32(t.NumRefs(length))], size
}

// WalkObjects calls fn for each object formatted consecutively in
// [start, limit). It is the Cheney scan-pointer walk: fn receives the
// object address and must not move it. Walking stops early if fn returns
// false.
func (s *Space) WalkObjects(start, limit Addr, fn func(obj Addr) bool) {
	s.WalkObjectsTyped(start, limit, func(obj Addr, _ *TypeDesc, _ int) bool {
		return fn(obj)
	})
}

// WalkObjectsTyped is WalkObjects with the header pre-decoded: fn also
// receives the object's type descriptor and array length, so scan loops
// need no further registry lookups per object.
func (s *Space) WalkObjectsTyped(start, limit Addr, fn func(obj Addr, t *TypeDesc, length int) bool) {
	for a := start; a < limit; {
		t, length := s.Header(a)
		if !fn(a, t, length) {
			return
		}
		a += Addr(t.Size(length))
	}
}
