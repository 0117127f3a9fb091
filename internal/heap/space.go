package heap

import "fmt"

// Space is the simulated virtual address space: a growable set of
// power-of-two sized frames, each backed by its own zeroed word slab.
// Frames are mapped on demand and unmapped when their increment is
// collected; unmapped frame numbers are recycled in FIFO order so that
// address reuse — and therefore stale-pointer bugs — are exercised, just
// as they would be against a real mmap'd heap.
//
// Slabs are []uint32 rather than []byte: the simulated machine is
// word-addressed for every collector-visible access, so Word/SetWord
// compile to a single indexed load/store instead of four byte operations,
// and CopyObject is a copy() over word slices. Unmapped slabs are pooled
// and re-zeroed on reuse, keeping frame turnover off the Go allocator.
type Space struct {
	Types *Registry

	frameBytes int
	frameShift uint
	wordShift  uint       // frameShift - WordShift: word index -> frame number
	wordMask   uint32     // words-per-frame - 1: word index -> slab offset
	frames     [][]uint32 // indexed by Frame; nil when unmapped
	free       []Frame    // FIFO recycle queue of unmapped frame numbers
	pool       [][]uint32 // unmapped slabs awaiting reuse
	mapped     int

	// Hooks for cost accounting; nil-safe.
	OnMap   func()
	OnUnmap func()

	// MapGate, when non-nil, is consulted by TryMapFrame/TryMapSpan
	// before mapping; returning false fails the map (fault injection).
	// MapFrame/MapSpan ignore it — boot-image and other must-succeed
	// maps stay ungated.
	MapGate func() bool
}

// NewSpace creates an address space with the given frame size, which must
// be a power of two and at least 256 bytes. The registry may be shared
// between spaces (e.g. a collected space and an immortal space).
func NewSpace(frameBytes int, types *Registry) *Space {
	if frameBytes < 256 || frameBytes&(frameBytes-1) != 0 {
		panic(fmt.Sprintf("heap: frame size %d is not a power of two >= 256", frameBytes))
	}
	shift := uint(0)
	for 1<<shift != frameBytes {
		shift++
	}
	return &Space{
		Types:      types,
		frameBytes: frameBytes,
		frameShift: shift,
		wordShift:  shift - WordShift,
		wordMask:   uint32(frameBytes>>WordShift) - 1,
		frames:     make([][]uint32, 1), // frame 0 reserved, never mapped
	}
}

// FrameBytes returns the frame size in bytes.
func (s *Space) FrameBytes() int { return s.frameBytes }

// FrameShift returns log2(FrameBytes); the write barrier's shift.
func (s *Space) FrameShift() uint { return s.frameShift }

// FrameOf returns the frame containing a.
func (s *Space) FrameOf(a Addr) Frame { return Frame(uint32(a) >> s.frameShift) }

// FrameBase returns the first address of frame f.
func (s *Space) FrameBase(f Frame) Addr { return Addr(uint32(f) << s.frameShift) }

// FrameLimit returns one past the last address of frame f.
func (s *Space) FrameLimit(f Frame) Addr { return s.FrameBase(f) + Addr(s.frameBytes) }

// MappedFrames returns the number of currently mapped frames.
func (s *Space) MappedFrames() int { return s.mapped }

// Mapped reports whether frame f is currently mapped.
func (s *Space) Mapped(f Frame) bool {
	return int(f) < len(s.frames) && s.frames[f] != nil
}

// newSlab returns a zeroed words-per-frame slab, reusing a pooled one
// when available: clearing a recycled slab is a memclr, with none of the
// allocator traffic a fresh make incurs on every collection.
func (s *Space) newSlab() []uint32 {
	if n := len(s.pool); n > 0 {
		slab := s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
		clear(slab)
		return slab
	}
	return make([]uint32, s.frameBytes>>WordShift)
}

// MapFrame maps a fresh zeroed frame and returns its number. Recycled
// frame numbers are reused FIFO.
func (s *Space) MapFrame() Frame {
	var f Frame
	if len(s.free) > 0 {
		f = s.free[0]
		s.free = s.free[1:]
	} else {
		f = Frame(len(s.frames))
		s.frames = append(s.frames, nil)
	}
	s.frames[f] = s.newSlab()
	s.mapped++
	if s.OnMap != nil {
		s.OnMap()
	}
	return f
}

// TryMapFrame is MapFrame behind the MapGate: with no gate (or a
// passing one) it maps a fresh frame; a vetoing gate fails the map
// without side effects. Collectible-frame maps go through here so fault
// injection can fail the Nth one.
func (s *Space) TryMapFrame() (Frame, bool) {
	if s.MapGate != nil && !s.MapGate() {
		return 0, false
	}
	return s.MapFrame(), true
}

// TryMapSpan is MapSpan behind the MapGate (one gate consultation per
// span, not per frame).
func (s *Space) TryMapSpan(n int) (Frame, bool) {
	if s.MapGate != nil && !s.MapGate() {
		return 0, false
	}
	return s.MapSpan(n), true
}

// UnmapFrame releases frame f. Touching its addresses afterwards panics,
// which is the simulated equivalent of a segfault.
func (s *Space) UnmapFrame(f Frame) {
	if !s.Mapped(f) {
		panic(fmt.Sprintf("heap: unmap of unmapped frame %d", f))
	}
	s.pool = append(s.pool, s.frames[f])
	s.frames[f] = nil
	s.free = append(s.free, f)
	s.mapped--
	if s.OnUnmap != nil {
		s.OnUnmap()
	}
}

// MapSpan maps n consecutive fresh frames (for a large object spanning
// frames) and returns the first. Span frame numbers are always newly
// minted — the single-frame recycle queue is not consulted — so the
// addresses are guaranteed contiguous.
func (s *Space) MapSpan(n int) Frame {
	if n < 1 {
		panic("heap: MapSpan of non-positive length")
	}
	f := Frame(len(s.frames))
	for i := 0; i < n; i++ {
		s.frames = append(s.frames, s.newSlab())
		s.mapped++
		if s.OnMap != nil {
			s.OnMap()
		}
	}
	return f
}

// UnmapSpan releases the n frames of a span mapped with MapSpan. The
// frame numbers are recycled individually.
func (s *Space) UnmapSpan(f Frame, n int) {
	for i := 0; i < n; i++ {
		s.UnmapFrame(f + Frame(i))
	}
}

// accessFault is the panic value of a bad heap access: the simulated
// equivalent of a segfault or bus error. Panicking with a plain value,
// formatted only when printed, keeps the access paths below small enough
// to inline, with a single combined validity branch on the hot path.
type accessFault struct {
	a          Addr
	write      bool
	frameShift uint
}

func (e accessFault) Error() string {
	if e.a&3 != 0 {
		if e.write {
			return fmt.Sprintf("heap: misaligned write at %v", e.a)
		}
		return fmt.Sprintf("heap: misaligned read at %v", e.a)
	}
	return fmt.Sprintf("heap: fault at %v (frame %d unmapped)", e.a, uint32(e.a)>>e.frameShift)
}

// slabAt returns the word slab of the frame containing a and a's word
// offset within it, faulting if the address is unmapped or misaligned.
func (s *Space) slabAt(a Addr, write bool) ([]uint32, uint32) {
	w := uint32(a) >> WordShift
	f := w >> s.wordShift
	if a&3 != 0 || int(f) >= len(s.frames) || s.frames[f] == nil {
		panic(accessFault{a, write, s.frameShift})
	}
	return s.frames[f], w & s.wordMask
}

// ZeroRange zeroes n bytes starting at a; the range must lie within a
// single frame. Fresh slabs arrive zeroed, but storage reclaimed in
// place (mark-region line sweeps) still holds the dead objects' bytes —
// allocators reusing such ranges must re-zero them so new objects see
// nil slots and zero data, exactly as they would in a fresh frame.
func (s *Space) ZeroRange(a Addr, n int) {
	slab, off := s.slabAt(a, true)
	clear(slab[off : off+uint32(n)>>WordShift])
}

// Word reads the word at byte address a.
func (s *Space) Word(a Addr) uint32 {
	w := uint32(a) >> WordShift
	f := w >> s.wordShift
	if a&3 != 0 || int(f) >= len(s.frames) || s.frames[f] == nil {
		panic(accessFault{a, false, s.frameShift})
	}
	return s.frames[f][w&s.wordMask]
}

// SetWord writes the word at byte address a.
func (s *Space) SetWord(a Addr, v uint32) {
	w := uint32(a) >> WordShift
	f := w >> s.wordShift
	if a&3 != 0 || int(f) >= len(s.frames) || s.frames[f] == nil {
		panic(accessFault{a, true, s.frameShift})
	}
	s.frames[f][w&s.wordMask] = v
}
