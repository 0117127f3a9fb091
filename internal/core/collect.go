package core

import (
	"fmt"

	"beltway/internal/gc"
	"beltway/internal/heap"
)

// gcState carries the per-collection working set: the condemned
// increments, the promotion targets resolved so far, and the Cheney scan
// positions over every target increment. One instance lives on the Heap
// and is reset per collection, so steady-state collections allocate
// nothing for their scan machinery.
type gcState struct {
	victims []*Increment
	targets []*Increment       // indexed by source belt: receiving increment
	mosDest map[int]*Increment // MOS train id -> open destination car
	scans   []scanState
}

// scanState is a Cheney scan pointer over one target increment. Newly
// copied objects land at the increment's bump cursor; the scan chases the
// cursor frame by frame until it catches up. Scan states live in
// gcState.scans by value; they are addressed by index because forwarding
// can grow the slice mid-scan.
type scanState struct {
	in   *Increment
	fi   int       // index into in.frames currently being scanned
	addr heap.Addr // next object to scan within frame fi
}

// reset prepares the reusable state for a collection over nBelts belts.
func (st *gcState) reset(victims []*Increment, nBelts int) {
	st.victims = victims
	if cap(st.targets) < nBelts {
		st.targets = make([]*Increment, nBelts)
	}
	st.targets = st.targets[:nBelts]
	clear(st.targets)
	if st.mosDest == nil {
		st.mosDest = make(map[int]*Increment)
	} else {
		clear(st.mosDest)
	}
	st.scans = st.scans[:0]
}

// collect performs one stop-the-world collection of the given increments.
// It is a Cheney copying collection whose root set is the mutator roots;
// the remembered-set entries targeting the condemned frames (from
// non-condemned frames) or, for card-marking configurations, the dirty
// cards of every uncollected frame; and — for boundary-barrier
// configurations — the entire boot image and large object space. When
// every increment is condemned, the large object space is mark-swept
// alongside the trace.
func (h *Heap) collect(victims []*Increment, trigger gc.TriggerKind) error {
	if h.inGC {
		panic("core: recursive collection")
	}
	h.inGC = true
	defer func() { h.inGC = false }()

	if h.hooks.PreGC != nil {
		h.hooks.PreGC()
	}
	h.clock.BeginPause()
	defer h.clock.EndPause()
	t0 := h.clock.Now()
	c0 := h.clock.Counters // pre-collection snapshot for GCEnd deltas
	h.clock.Advance(h.cfg.Costs.GCSetup)
	h.gcCount++
	c := &h.clock.Counters
	c.Collections++

	preOccupancy := h.LiveEstimate()
	condemnedBytes := 0
	for _, in := range victims {
		in.condemned = true
		condemnedBytes += in.bytes
	}
	full := condemnedBytes >= preOccupancy && preOccupancy > 0
	if full {
		c.FullCollections++
	}
	if h.hooks.GCBegin != nil {
		h.hooks.GCBegin(gc.GCBeginInfo{
			Trigger:             trigger,
			Full:                full,
			CondemnedIncrements: len(victims),
			CondemnedBytes:      condemnedBytes,
			OccupiedBytes:       preOccupancy,
		})
	}
	if h.hooks.Condemned != nil {
		for _, in := range victims {
			h.hooks.Condemned(gc.IncrementInfo{
				Belt: in.belt, Seq: in.seq, Train: in.train,
				Bytes: in.bytes, Frames: len(in.frames),
			})
		}
	}
	// A collection condemning every increment traces all live data, so
	// it can also mark-sweep the large object space.
	total := 0
	for _, b := range h.belts {
		total += b.Len()
	}
	h.los.sweeping = len(h.los.objects) > 0 && len(victims) == total

	// Renew condemned mark-region increments (fresh seq at the back of
	// their belts, frames restamped) and pick the frames to evacuate,
	// before any slot is examined against the stamps.
	h.mrPrepareCollection(victims, trigger == gc.TriggerDefrag)

	st := &h.gcs
	st.reset(victims, len(h.belts))

	// 1. Mutator roots.
	var gcErr error
	h.roots.Walk(func(a heap.Addr) heap.Addr {
		c.RootsScanned++
		h.clock.Advance(h.cfg.Costs.RootSlot)
		if gcErr != nil || !h.isCondemned(a) {
			h.markLOS(a)
			return a
		}
		na, err := h.forward(a, st, nil)
		if err != nil {
			gcErr = err
			return a
		}
		return na
	})
	if gcErr != nil {
		return gcErr
	}

	// 2. Harvest the remembered-set roots (entries from non-condemned
	// frames into condemned frames; sets between two condemned frames
	// are ignored wholesale, §3.3.2), then retire every OTHER set
	// touching a condemned mark-region frame. A renewed increment keeps
	// its frames, so unlike a copying increment its stale entries do not
	// die with the frame: the slots of its dead objects vanish at the
	// coming sweep, and once their lines are reused such a slot address
	// would point into the middle of some future object — consuming it
	// then would read (or clobber) arbitrary live words. The trace
	// re-inserts exactly the entries that still matter: survivors'
	// outgoing pointers when they are scanned, pointers INTO the renewed
	// frames when the slots holding them pass through rescanSlot. The
	// harvest comes first because those entries are this collection's
	// roots; the purge precedes the boot scan so it cannot eat entries
	// the scan is about to insert for in-place survivors.
	slots := h.rems.AppendRoots(h.rootBuf[:0], h.frameCondemnedFn)
	h.rootBuf = slots
	if h.mr.active {
		for _, in := range victims {
			if !h.isMRBelt(in.belt) {
				continue
			}
			for _, f := range in.frames {
				h.rems.DeleteFrame(f)
			}
		}
	}

	// 3. Boot image scan: boundary-barrier configurations pay it at every
	// collection (their cheap barrier does not remember boot-image
	// stores, as the paper notes of Appel's collector); a heap in remset-
	// overflow degradation pays it too, because the dropped entries could
	// have covered boot- or LOS-sourced pointers.
	if h.cfg.Barrier == BoundaryBarrier || h.deg.remsetOverflow {
		if err := h.scanBootImage(st); err != nil {
			return err
		}
	}

	// 4. Pointers into the condemned set from the rest of the heap:
	// dirty-card scanning for card-marking configurations, the harvested
	// remembered-set entries otherwise.
	if h.cfg.Barrier == CardBarrier {
		if err := h.scanDirtyCards(st); err != nil {
			return err
		}
	}
	for _, slotAddr := range slots {
		c.RemsetEntriesGC++
		h.clock.Advance(h.cfg.Costs.RemsetEntry)
		val := heap.Addr(h.space.Word(slotAddr))
		if val != heap.Nil && h.mrStale(val) {
			// The slot (itself only reachable through a stale remset
			// entry) points at storage a line sweep already reclaimed.
			h.space.SetWord(slotAddr, uint32(heap.Nil))
			continue
		}
		if val == heap.Nil || !h.isCondemned(val) {
			if val != heap.Nil {
				h.markLOS(val)
			}
			continue // stale entry: the slot was overwritten since insertion
		}
		var ctx *Increment
		if f := h.space.FrameOf(slotAddr); int(f) < len(h.incrOf) {
			ctx = h.incrOf[f]
		}
		nv, err := h.forward(val, st, ctx)
		if err != nil {
			return err
		}
		h.space.SetWord(slotAddr, uint32(nv))
		h.rescanSlot(slotAddr, nv)
	}

	// 5. Transitive closure: Cheney scans over the copying targets,
	// interleaved with the mark-region gray stack (in-place survivors
	// and arrivals in holey frames) and, during full collections,
	// large-object marking.
	for {
		if err := h.drainScans(st); err != nil {
			return err
		}
		advMR, err := h.drainMRQueue(st)
		if err != nil {
			return err
		}
		advLOS, err := h.drainLOSQueue(st)
		if err != nil {
			return err
		}
		if !advMR && !advLOS {
			break
		}
	}

	// 6. Release the condemned increments: delete their remsets, unmap
	// their frames, drop them from their belts. Mark-region increments
	// are instead swept to free-line runs and rejoin their belts (only
	// evacuated and emptied frames are unmapped).
	for _, in := range victims {
		if h.isMRBelt(in.belt) {
			h.mrRelease(in)
			continue
		}
		for _, f := range in.frames {
			h.rems.DeleteFrame(f)
			h.space.UnmapFrame(f)
			h.incrOf[f] = nil
			h.stamp[f] = 0
			h.fill[f] = heap.Nil
			h.heapFrames--
			h.clock.Advance(h.cfg.Costs.FrameOp)
		}
		h.belts[in.belt].remove(in)
	}

	h.sweepLOS()

	// An all-increments collection re-derived every interesting pointer
	// (survivor slots via rescanSlot, boot/LOS slots via scanBootImage),
	// so the remembered sets are whole again.
	if h.deg.remsetOverflow && len(victims) == total {
		h.deg.remsetOverflow = false
	}

	h.recomputeReserve()
	h.inGC = false // the heap is consistent again; hooks may inspect it
	cn := h.clock.Counters
	endInfo := gc.GCEndInfo{
		Duration:          h.clock.Now() - t0,
		BytesCopied:       cn.BytesCopied - c0.BytesCopied,
		ObjectsCopied:     cn.ObjectsCopied - c0.ObjectsCopied,
		RemsetEntries:     cn.RemsetEntriesGC - c0.RemsetEntriesGC,
		CardsScanned:      cn.CardsScanned - c0.CardsScanned,
		BootBytesScanned:  cn.BootBytesScanned - c0.BootBytesScanned,
		BarrierSlowPaths:  cn.BarrierSlowPaths - h.slowAtLastGC,
		SurvivorBytes:     h.LiveEstimate(),
		MRObjectsMarked:   cn.MRObjectsMarked - c0.MRObjectsMarked,
		MRBytesMarked:     cn.MRBytesMarked - c0.MRBytesMarked,
		MRFramesEvacuated: cn.MRFramesEvacuated - c0.MRFramesEvacuated,
	}
	if h.hooks.GCEnd != nil {
		h.hooks.GCEnd(endInfo)
	}
	h.slowAtLastGC = cn.BarrierSlowPaths
	if h.hooks.Occupancy != nil {
		for bi, b := range h.belts {
			frames := 0
			for _, in := range b.incrs {
				frames += len(in.frames)
			}
			lines, used := h.MRLineStats(bi)
			h.hooks.Occupancy(gc.BeltStat{
				Belt: bi, Increments: b.Len(), Bytes: b.Bytes(), Frames: frames,
				MRLines: lines, MRLinesUsed: used,
			})
		}
	}
	if h.hooks.PostGC != nil {
		h.hooks.PostGC()
	}
	// Adaptive policy runs last, over the consistent post-collection
	// heap, after every observer has seen this collection's telemetry.
	h.runTuner(trigger, full, endInfo)
	return nil
}

// isCondemned reports whether address a lies in a condemned increment.
func (h *Heap) isCondemned(a heap.Addr) bool {
	f := h.space.FrameOf(a)
	if int(f) >= len(h.incrOf) {
		return false
	}
	in := h.incrOf[f]
	return in != nil && in.condemned
}

// frameCondemned reports whether frame f belongs to a condemned increment.
func (h *Heap) frameCondemned(f heap.Frame) bool {
	if int(f) >= len(h.incrOf) {
		return false
	}
	in := h.incrOf[f]
	return in != nil && in.condemned
}

// forward copies the condemned object at a to its promotion target
// (installing a forwarding pointer), or returns the existing forwarding
// address if it was already copied.
// ctx is the increment holding the reference that led here (nil for
// roots and the boot image); MOS belts evacuate by referrer.
func (h *Heap) forward(a heap.Addr, st *gcState, ctx *Increment) (heap.Addr, error) {
	fwd, size := h.space.ForwardingOrSize(a)
	if fwd != heap.Nil {
		return fwd, nil
	}
	src := h.incrOf[h.space.FrameOf(a)]
	if src == nil || !src.condemned {
		panic(fmt.Sprintf("core: forward of non-condemned object at %v", a))
	}
	// Mark-region frames keep their survivors in place (unless flagged
	// for evacuation): mark, queue for scanning, return the same address.
	if h.mr.active && h.mrMark(a, size) {
		return a, nil
	}
	var dst heap.Addr
	var err error
	if h.cfg.MOS && src.belt == h.mosBelt() {
		car := h.mosDestination(src, ctx, st)
		dst, err = h.bumpIntoCar(car, size, st)
	} else {
		dst, err = h.gcBump(src.belt, size, st)
	}
	if err != nil {
		return heap.Nil, err
	}
	h.space.CopyAndForward(a, dst, size)
	c := &h.clock.Counters
	c.ObjectsCopied++
	c.BytesCopied += uint64(size)
	h.clock.Advance(h.cfg.Costs.CopyByte * float64(size))
	if h.hooks.Moved != nil {
		h.hooks.Moved(a, dst)
	}
	// Copies into mark-region frames cannot rely on a Cheney scan (the
	// frame may have holes between live runs), so queue them explicitly.
	if h.mr.active && h.mrFrame(h.space.FrameOf(dst)) != nil {
		h.mr.queue = append(h.mr.queue, dst)
	}
	return dst, nil
}

// gcBump allocates size bytes in the promotion target of srcBelt, opening
// new frames (and, past a bounded target's capacity, new increments) from
// the copy reserve. It registers every target increment with the scan
// list exactly once.
func (h *Heap) gcBump(srcBelt, size int, st *gcState) (heap.Addr, error) {
	in := st.targets[srcBelt]
	if in == nil {
		in = h.resolveTarget(srcBelt, st)
	}
	for {
		if in.cursor != heap.Nil && in.cursor+heap.Addr(size) <= in.limit {
			return h.bump(in, size), nil
		}
		if !in.atCapacity() {
			if err := h.gcAddFrame(in); err != nil {
				return heap.Nil, err
			}
			continue
		}
		// Target increment full: open a fresh increment on the same
		// belt (same train, for MOS cars) for the remaining survivors.
		if h.cfg.MOS && in.belt == h.mosBelt() {
			in = h.newMOSCar(in.train)
			st.mosDest[in.train] = in
		} else {
			in = h.newIncrement(h.belts[in.belt])
		}
		st.targets[srcBelt] = in
		h.registerScan(in, st)
	}
}

// resolveTarget picks (or creates) the receiving increment for survivors
// of srcBelt: the youngest non-condemned increment of the promotion
// target belt, per the paper's promotion rule.
func (h *Heap) resolveTarget(srcBelt int, st *gcState) *Increment {
	tbIdx := h.belts[srcBelt].promoteTo
	if h.cfg.MOS && tbIdx == h.mosBelt() {
		// Promotion into the mature space enters the last train, or a
		// fresh train once the last one has its fill of cars.
		var in *Increment
		if lt := h.lastTrain(); lt >= 0 && len(h.trainCars(lt)) < h.mos.carsPerTrain {
			in = h.mosTargetCar(lt, st)
		} else {
			in = h.mosTargetCar(-1, st)
		}
		st.targets[srcBelt] = in
		return in
	}
	tb := h.belts[tbIdx]
	var in *Increment
	if y := tb.Youngest(); y != nil && !y.condemned {
		in = y
	} else {
		in = h.newIncrement(tb)
	}
	st.targets[srcBelt] = in
	h.registerScan(in, st)
	return in
}

// registerScan adds a Cheney scan pointer for target increment in,
// starting at its current bump position. Objects already present in the
// increment are not rescanned: whether they were copied there by an
// earlier collection or bump-allocated by the mutator (as in older-first
// mix, where allocation and copies share an increment), every interesting
// pointer they hold is already in a remembered set, so only objects
// copied during THIS collection need scanning.
func (h *Heap) registerScan(in *Increment, st *gcState) {
	if h.isMRBelt(in.belt) {
		// Mark-region increments have holes, so they cannot be Cheney-
		// scanned linearly; forward queues each arrival on h.mr.queue.
		return
	}
	for i := range st.scans {
		if st.scans[i].in == in {
			return
		}
	}
	s := scanState{in: in}
	if len(in.frames) == 0 {
		s.fi = 0
		s.addr = heap.Nil
	} else {
		s.fi = len(in.frames) - 1
		s.addr = in.cursor
	}
	st.scans = append(st.scans, s)
}

// drainScans runs all Cheney scan pointers to fixpoint. Each pass covers
// the scans registered before it started; scans registered mid-pass are
// picked up by the next pass (the fixpoint loop guarantees they run).
func (h *Heap) drainScans(st *gcState) error {
	for {
		progress := false
		n := len(st.scans)
		for i := 0; i < n; i++ {
			adv, err := h.advanceScan(i, st)
			if err != nil {
				return err
			}
			progress = progress || adv
		}
		if !progress {
			return nil
		}
	}
}

// advanceScan scans as many objects as are currently available to the
// idx'th scan, reporting whether it advanced at all. The scan is
// re-resolved by index after every object: forwarding out of scanObject
// can register new scans and reallocate st.scans underneath us.
func (h *Heap) advanceScan(idx int, st *gcState) (bool, error) {
	advanced := false
	for {
		s := &st.scans[idx]
		in := s.in
		if len(in.frames) == 0 {
			return advanced, nil
		}
		if s.addr == heap.Nil {
			// Scan was registered before the increment had frames.
			s.fi = 0
			s.addr = h.space.FrameBase(in.frames[0])
		}
		f := in.frames[s.fi]
		if obj := s.addr; obj < h.fill[f] {
			size, err := h.scanObject(obj, st)
			if err != nil {
				return advanced, err
			}
			s = &st.scans[idx] // st.scans may have grown
			s.addr = obj + heap.Addr(size)
			advanced = true
			continue
		}
		if s.fi < len(in.frames)-1 {
			s.fi++
			s.addr = h.space.FrameBase(in.frames[s.fi])
			continue
		}
		return advanced, nil // caught up with the bump cursor
	}
}

// scanObject processes the reference slots of one newly copied object:
// condemned referents are forwarded, and every slot is re-tested against
// the barrier rule because the object now lives in a new frame. The
// header is decoded once and the slots are read and written through one
// window onto the frame's slab. It returns the object's size so the
// caller advances without a second header decode.
func (h *Heap) scanObject(obj heap.Addr, st *gcState) (int, error) {
	c := &h.clock.Counters
	slots, size := h.space.RefSlots(obj)
	ctx := h.incrOf[h.space.FrameOf(obj)]
	for i, w := range slots {
		c.SlotsScanned++
		h.clock.Advance(h.cfg.Costs.ScanSlot)
		val := heap.Addr(w)
		if val == heap.Nil {
			continue
		}
		if h.mrStale(val) {
			// Stale pointer in a resurrected dead object: the referent
			// was reclaimed by a line sweep. Clear it.
			slots[i] = uint32(heap.Nil)
			continue
		}
		if h.isCondemned(val) {
			nv, err := h.forward(val, st, ctx)
			if err != nil {
				return 0, err
			}
			slots[i] = uint32(nv)
			val = nv
		} else {
			h.markLOS(val)
		}
		h.rescanSlot(h.space.RefSlotAddr(obj, i), val)
	}
	return size, nil
}

// scanBootImage walks every boot-image object, forwarding condemned
// referents. Boundary-barrier collectors pay this cost at every
// collection in exchange for their cheaper barrier.
func (h *Heap) scanBootImage(st *gcState) error {
	c := &h.clock.Counters
	c.BootBytesScanned += uint64(h.boot.bytes)
	h.clock.Advance(h.cfg.Costs.BootScanByte * float64(h.boot.bytes))
	for _, f := range h.boot.frames {
		base := h.space.FrameBase(f)
		limit := h.fill[f]
		var err error
		h.space.WalkObjectsTyped(base, limit, func(obj heap.Addr, t *heap.TypeDesc, length int) bool {
			n := t.NumRefs(length)
			slotAddr := obj + heap.HeaderBytes
			for i := 0; i < n; i++ {
				val := heap.Addr(h.space.Word(slotAddr))
				if val == heap.Nil {
					slotAddr += heap.WordBytes
					continue
				}
				if !h.isCondemned(val) {
					h.markLOS(val)
					slotAddr += heap.WordBytes
					continue
				}
				var nv heap.Addr
				nv, err = h.forward(val, st, nil)
				if err != nil {
					return false
				}
				h.space.SetWord(slotAddr, uint32(nv))
				// Re-apply the barrier rule: a no-op for the boundary
				// barrier (boot sources are never remembered), but under
				// remset-overflow degradation the frame barrier must
				// re-remember boot->heap pointers before the overflow
				// flag can clear.
				h.rescanSlot(slotAddr, nv)
				slotAddr += heap.WordBytes
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	// The boundary barrier does not remember large-object stores either;
	// scan every LOS object's slots like the boot image.
	for _, lo := range h.los.objects {
		n := h.space.NumRefs(lo.addr)
		for i := 0; i < n; i++ {
			h.clock.Advance(h.cfg.Costs.ScanSlot)
			val := h.space.GetRef(lo.addr, i)
			if val != heap.Nil && h.mrStale(val) {
				// Dead-but-unswept large objects can hold pointers to
				// storage a line sweep already reclaimed.
				h.space.SetRef(lo.addr, i, heap.Nil)
				continue
			}
			if val == heap.Nil || !h.isCondemned(val) {
				continue
			}
			nv, err := h.forward(val, st, nil)
			if err != nil {
				return err
			}
			h.space.SetRef(lo.addr, i, nv)
			h.rescanSlot(h.space.RefSlotAddr(lo.addr, i), nv)
		}
	}
	return nil
}

// gcAddFrame maps a frame for a copy target. Copy frames draw on the
// reserve, so the mutator budget does not apply, but two hard caps do:
//
//   - the whole-heap cap catches reserve-accounting bugs (the total may
//     exceed the heap budget only by the per-belt packing slack);
//
//   - a per-belt cap enforces other belts' permanent reservations
//     (BeltSpec.ReserveFrac): a classic fixed-size-nursery collector
//     fails — as the paper's do in Figure 6 — when survivors no longer
//     fit beside the reserved nursery.
func (h *Heap) gcAddFrame(in *Increment) error {
	if fh := h.cfg.Faults; fh != nil && fh.ReserveGrant != nil && !fh.ReserveGrant() {
		// Injected transient reservation failure. Without the ladder it
		// is fatal — exactly the fragility this subsystem removes; with
		// it, one retry absorbs the fault (schedules guarantee at least
		// resilience.MinGap calls between faults, so the retry's own
		// consultation cannot fire again).
		if !h.cfg.Degrade {
			return h.oomError(0,
				fmt.Sprintf("%s: copy reserve grant failed during collection", h.cfg.Name))
		}
		h.noteDegrade(gc.DegradeReserveRetry, 0)
		if !fh.ReserveGrant() {
			return h.oomError(0,
				fmt.Sprintf("%s: copy reserve grant failed during collection", h.cfg.Name))
		}
	}
	limit := h.cfg.HeapBytes + (len(h.belts)+2)*h.cfg.FrameBytes
	if (h.heapFrames+1)*h.cfg.FrameBytes > limit {
		// A Cheney collection cannot abort mid-scan, so a reserve
		// exhausted mid-collection is absorbed — under the ladder — by a
		// bounded overdraft: map beyond the cap now, settle with an
		// emergency collection at the next safe point.
		if !h.cfg.Degrade || h.deg.overdraftFrames >= h.overdraftLimit() {
			return h.oomError(0,
				fmt.Sprintf("%s: copy reserve exhausted during collection", h.cfg.Name))
		}
		h.deg.overdraftFrames++
		h.deg.pendingEmergency = true
		h.noteDegrade(gc.DegradeOverdraft, 0)
	}
	otherReserve := 0.0
	for i, b := range h.belts {
		if i != in.belt {
			otherReserve += b.spec.ReserveFrac
		}
	}
	if otherReserve > 0 {
		usable := h.cfg.HeapBytes - h.reserveBytes
		beltCap := int((1-otherReserve)*float64(usable))/h.cfg.FrameBytes + 1
		held := 0
		for _, incr := range h.belts[in.belt].incrs {
			if !incr.condemned { // condemned increments are being evacuated
				held += len(incr.frames)
			}
		}
		if held+1 > beltCap {
			// Permanent reservations stay hard even under the ladder:
			// they model a policy choice, not a transient failure.
			return h.oomError(0,
				fmt.Sprintf("%s: survivors exceed the space left by reserved belts", h.cfg.Name))
		}
	}
	if !h.addFrame(in) && !h.addFrame(in) { // one retry absorbs an injected map fault
		return h.oomError(0,
			fmt.Sprintf("%s: frame map failed during collection", h.cfg.Name))
	}
	return nil
}
