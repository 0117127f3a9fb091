package heap

import "testing"

// The copying collector's trace loop decodes each header once through
// ForwardingOrSize, RefSlots and CopyAndForward. These tests hold the
// header-once accessors to the per-field accessors they replace.

// formatFilled formats an object of type t at a and fills its reference
// slots and data words with distinct non-zero values.
func formatFilled(s *Space, a Addr, t *TypeDesc, length int, serial uint32) {
	s.Format(a, t, length, serial)
	for i := 0; i < t.NumRefs(length); i++ {
		s.SetRef(a, i, Addr(0x1000+4*i))
	}
	for i := 0; i < s.DataWords(a); i++ {
		s.SetData(a, i, 0xd00+uint32(i))
	}
}

// checkHeaderOnce checks the accessors on the object at a, then forwards
// it to dst and checks the copy against a CopyObject copy at ref.
func checkHeaderOnce(t *testing.T, s *Space, a, dst, ref Addr) {
	t.Helper()
	typ, length := s.Header(a)
	fwd, size := s.ForwardingOrSize(a)
	if fwd != Nil || size != s.SizeOf(a) {
		t.Fatalf("ForwardingOrSize = (%v, %d), want (nil, %d)", fwd, size, s.SizeOf(a))
	}
	slots, rsize := s.RefSlots(a)
	if rsize != size || len(slots) != s.NumRefs(a) || len(slots) != typ.NumRefs(length) {
		t.Fatalf("RefSlots: %d slots, size %d; want %d slots, size %d",
			len(slots), rsize, s.NumRefs(a), size)
	}
	for i, w := range slots {
		if Addr(w) != s.GetRef(a, i) {
			t.Errorf("slot %d: window holds %#x, GetRef %v", i, w, s.GetRef(a, i))
		}
	}

	if n := s.CopyObject(a, ref); n != size {
		t.Fatalf("CopyObject returned %d, want %d", n, size)
	}
	s.CopyAndForward(a, dst, size)
	if fwd, n := s.ForwardingOrSize(a); fwd != dst || n != 0 || s.Forwarding(a) != dst {
		t.Errorf("after CopyAndForward: ForwardingOrSize = (%v, %d), Forwarding = %v; want %v",
			fwd, n, s.Forwarding(a), dst)
	}
	for off := Addr(0); off < Addr(size); off += WordBytes {
		if s.Word(dst+off) != s.Word(ref+off) {
			t.Errorf("word %d: CopyAndForward copied %#x, CopyObject %#x",
				off/WordBytes, s.Word(dst+off), s.Word(ref+off))
		}
	}
	if s.Forwarded(dst) {
		t.Error("the copy is marked forwarded")
	}
}

func TestHeaderOnceAccessorsMatchPerField(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		name   string
		typ    *TypeDesc
		length int
	}{
		{"scalar", r.DefineScalar("node", 3, 2), 0},
		{"scalar-norefs", r.DefineScalar("leaf", 0, 4), 0},
		{"refarray", r.DefineRefArray("refs"), 7},
		{"refarray-empty", r.DefineRefArray("refs0"), 0},
		{"wordarray", r.DefineWordArray("words"), 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewSpace(4096, r)
			from := s.FrameBase(s.MapFrame())
			to := s.FrameBase(s.MapFrame())
			formatFilled(s, from, c.typ, c.length, 42)
			checkHeaderOnce(t, s, from, to, to+2048)
		})
	}
}

// An object may end exactly at its frame's limit; only crossing the
// edge is corruption.
func TestHeaderOnceAtFrameLimit(t *testing.T) {
	r := NewRegistry()
	arr := r.DefineRefArray("refs")
	s := NewSpace(4096, r)
	from := s.FrameBase(s.MapFrame())
	to := s.FrameBase(s.MapFrame())
	const length = 13
	size := arr.Size(length)
	a := s.FrameLimit(s.FrameOf(from)) - Addr(size)
	formatFilled(s, a, arr, length, 7)
	dst := s.FrameLimit(s.FrameOf(to)) - Addr(size)
	checkHeaderOnce(t, s, a, dst, to)
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// Collectible objects never span frames, so a header-once access to one
// that does is heap corruption and panics like any bad access.
func TestHeaderOnceFrameSpanningPanics(t *testing.T) {
	r := NewRegistry()
	arr := r.DefineRefArray("refs")
	s := NewSpace(4096, r)
	span := s.MapSpan(2)
	a := s.FrameLimit(span) - 64 // 16 words in the first frame, the rest in the second
	s.Format(a, arr, 40, 1)
	size := arr.Size(40)
	if fwd, n := s.ForwardingOrSize(a); fwd != Nil || n != size {
		t.Errorf("ForwardingOrSize = (%v, %d), want (nil, %d)", fwd, n, size)
	}
	to := s.FrameBase(s.MapFrame())
	mustPanic(t, "RefSlots on a spanning object", func() { s.RefSlots(a) })
	mustPanic(t, "CopyAndForward from a spanning object", func() { s.CopyAndForward(a, to, size) })
	mustPanic(t, "CopyObject from a spanning object", func() { s.CopyObject(a, to) })
	if s.Forwarded(a) {
		t.Error("a failed CopyAndForward installed a forwarding pointer")
	}

	s.Format(to, arr, 1, 2)
	edge := s.FrameLimit(s.FrameOf(to)) - 8
	mustPanic(t, "CopyAndForward to a spanning range", func() { s.CopyAndForward(to, edge, arr.Size(1)) })
	s.CopyAndForward(to, to+1024, arr.Size(1))
	mustPanic(t, "RefSlots on a forwarded object", func() { s.RefSlots(to) })
	mustPanic(t, "double CopyAndForward", func() { s.CopyAndForward(to, to+2048, arr.Size(1)) })
}

// A slot window is a view of the frame's own slab, so it stays valid and
// writes through when forwarding maps frames and grows Space.frames.
func TestRefSlotsWindowSurvivesFrameTableGrowth(t *testing.T) {
	r := NewRegistry()
	node := r.DefineScalar("node", 4, 1)
	s := NewSpace(4096, r)
	a := s.FrameBase(s.MapFrame())
	formatFilled(s, a, node, 0, 3)
	slots, _ := s.RefSlots(a)
	before := cap(s.frames)
	for cap(s.frames) == before {
		s.MapFrame()
	}
	b := s.FrameBase(s.MapFrame())
	slots[1] = uint32(b)
	if s.GetRef(a, 1) != b {
		t.Errorf("write through the window lost after frame table growth: slot holds %v", s.GetRef(a, 1))
	}
	s.SetRef(a, 2, b+16)
	if Addr(slots[2]) != b+16 {
		t.Errorf("window does not see a store made through SetRef: %#x", slots[2])
	}
}
