package main

import (
	"sort"
	"time"

	"beltway/internal/gc"
	"beltway/internal/heap"
	"beltway/internal/stats"
)

// samplePeriod is the stride of timed collector calls: one Alloc,
// WriteRef and ReadRef in every samplePeriod is timed, all are counted.
// Timing every call doubles the host time of a run; one in eight keeps
// the traced run within a few tens of percent of the untraced one.
const samplePeriod = 8

// clockCost is the part of a sampled call's measured time that is the
// clock reads themselves: half the cost of a back-to-back
// time.Now/time.Since pair, measured once at start-up. The per-call
// figures keep it (they stay positive for calls as cheap as a read);
// the totals that feed self times are net of it.
var clockCost = measureClockCost()

func measureClockCost() time.Duration {
	const rounds, n = 9, 2000
	costs := make([]time.Duration, rounds)
	for r := range costs {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = time.Since(time.Now())
		}
		costs[r] = time.Since(t0) / (2 * n)
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
	return costs[rounds/2]
}

// probe accumulates host time and call counts at the collector boundary
// of one mutator. A probe is owned by one mutator: the flat runs use one,
// a sharded run one per shard, so no field is shared between goroutines
// that run at the same time.
type probe struct {
	allocCalls, allocSampled uint64
	writeCalls, writeSampled uint64
	readCalls, readSampled   uint64
	allocSelf                time.Duration // sampled Alloc time less nested collections
	write, read              time.Duration // sampled WriteRef and ReadRef time
	// The sampled times include the clock reads; see clockCost.

	gcCount   uint64
	gc        time.Duration // GCBegin→GCEnd, every collection
	gcInBody  time.Duration // the part of gc that fell inside body
	gcStart   time.Time
	hookTime  time.Duration // time inside the flight recorder's hooks
	body      time.Duration // time inside the mutator's workload body
	inBody    bool
	copied    uint64 // simulated bytes copied, from GCEnd
	rootsPeak int
}

// timedCollector decorates a gc.Collector: it counts every Alloc,
// WriteRef and ReadRef and times one call in samplePeriod. Every other
// method passes through untouched.
type timedCollector struct {
	gc.Collector
	p *probe
}

func (c *timedCollector) Alloc(t *heap.TypeDesc, length int) (heap.Addr, error) {
	p := c.p
	p.allocCalls++
	if p.allocCalls%samplePeriod != 0 {
		return c.Collector.Alloc(t, length)
	}
	gc0 := p.gc
	t0 := time.Now()
	a, err := c.Collector.Alloc(t, length)
	p.allocSelf += time.Since(t0) - (p.gc - gc0)
	p.allocSampled++
	return a, err
}

func (c *timedCollector) WriteRef(obj heap.Addr, slot int, val heap.Addr) {
	p := c.p
	p.writeCalls++
	if p.writeCalls%samplePeriod != 0 {
		c.Collector.WriteRef(obj, slot, val)
		return
	}
	t0 := time.Now()
	c.Collector.WriteRef(obj, slot, val)
	p.write += time.Since(t0)
	p.writeSampled++
}

func (c *timedCollector) ReadRef(obj heap.Addr, slot int) heap.Addr {
	p := c.p
	p.readCalls++
	if p.readCalls%samplePeriod != 0 {
		return c.Collector.ReadRef(obj, slot)
	}
	t0 := time.Now()
	a := c.Collector.ReadRef(obj, slot)
	p.read += time.Since(t0)
	p.readSampled++
	return a
}

// hooks returns the flight recorder's hooks with each one timed, bracketed
// by GCBegin/GCEnd timers that bound every collection.
func (p *probe) hooks(rec gc.Hooks) gc.Hooks {
	begin := gc.Hooks{GCBegin: func(gc.GCBeginInfo) { p.gcStart = time.Now() }}
	end := gc.Hooks{GCEnd: func(info gc.GCEndInfo) {
		d := time.Since(p.gcStart)
		p.gc += d
		if p.inBody {
			p.gcInBody += d
		}
		p.gcCount++
		p.copied += info.BytesCopied
	}}
	timed := gc.Hooks{
		PreGC:     timed0(p, rec.PreGC),
		PostGC:    timed0(p, rec.PostGC),
		Moved:     timed2(p, rec.Moved),
		GCBegin:   timed1(p, rec.GCBegin),
		Condemned: timed1(p, rec.Condemned),
		GCEnd:     timed1(p, rec.GCEnd),
		Occupancy: timed1(p, rec.Occupancy),
		Flip:      timed2(p, rec.Flip),
		OOM:       timed2(p, rec.OOM),
		Degraded:  timed1(p, rec.Degraded),
	}
	return begin.Merge(timed).Merge(end)
}

func timed0(p *probe, f func()) func() {
	if f == nil {
		return nil
	}
	return func() {
		t0 := time.Now()
		f()
		p.hookTime += time.Since(t0)
	}
}

func timed1[T any](p *probe, f func(T)) func(T) {
	if f == nil {
		return nil
	}
	return func(v T) {
		t0 := time.Now()
		f(v)
		p.hookTime += time.Since(t0)
	}
}

func timed2[T, U any, F ~func(T, U)](p *probe, f F) F {
	if f == nil {
		return nil
	}
	return func(a T, b U) {
		t0 := time.Now()
		f(a, b)
		p.hookTime += time.Since(t0)
	}
}

// runBody runs fn as the mutator's workload body, timing it.
func (p *probe) runBody(fn func()) {
	p.inBody = true
	t0 := time.Now()
	fn()
	p.body += time.Since(t0)
	p.inBody = false
}

// estimate scales the time of n sampled calls, net of their clock
// reads, up to all calls.
func estimate(sampled time.Duration, n, calls uint64) time.Duration {
	if n == 0 {
		return 0
	}
	net := sampled - time.Duration(n)*clockCost
	return time.Duration(float64(net) / float64(n) * float64(calls))
}

// selfTime is the body time not spent in the collector boundary: the
// workload, vm and root-set code (or the server loop) of the run.
func (p *probe) selfTime() time.Duration {
	return p.body - p.gcInBody -
		estimate(p.allocSelf, p.allocSampled, p.allocCalls) -
		estimate(p.write, p.writeSampled, p.writeCalls) -
		estimate(p.read, p.readSampled, p.readCalls)
}

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program. Times are nanoseconds
// since the benchmark started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory and the layer totals
// they feed. It is used from one goroutine: the benchmark's own.
type tracer struct {
	epoch time.Time
	spans []span
	l     layers
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(parent int, name, key string) (id int, end func() time.Duration) {
	id = len(t.spans) + 1
	t0 := time.Now()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: int64(t0.Sub(t.epoch))})
	return id, func() time.Duration {
		t1 := time.Now()
		t.spans[id-1].End = int64(t1.Sub(t.epoch))
		return t1.Sub(t0)
	}
}

// layers holds the per-layer totals of the traced passes of one run.
type layers struct {
	passes int

	allocCalls, allocSampled uint64
	writeCalls, writeSampled uint64
	readCalls, readSampled   uint64
	allocSelf, write, read   time.Duration
	allocEst                 time.Duration
	gc, hooks, mrGC          time.Duration
	gcCopied                 uint64
	workloadSelf, loopSelf   time.Duration
	rootsPeak                int

	counters stats.Counters // simulated counters of every job's result

	runs         int           // traced runs, the jobs the probes saw
	runTime      time.Duration // host time of the traced runs
	mallocs      uint64
	harnessSelf  time.Duration
	dispatch     time.Duration
	dispatchJobs int

	requests, writes      int
	rounds, polls, routed uint64
	shardedMs, flatMs     float64

	farmJobTime, farmExecute time.Duration
	farmJobs, appends        int
	appendTime               time.Duration
	farmVerify               time.Duration
	spawns                   int
}

// addProbe folds one mutator's probe into the totals. server selects
// where the body's residual goes; markRegion marks a mark-region preset.
func (l *layers) addProbe(p *probe, server, markRegion bool) {
	l.allocCalls += p.allocCalls
	l.allocSampled += p.allocSampled
	l.writeCalls += p.writeCalls
	l.writeSampled += p.writeSampled
	l.readCalls += p.readCalls
	l.readSampled += p.readSampled
	l.allocSelf += p.allocSelf
	l.write += p.write
	l.read += p.read
	l.allocEst += estimate(p.allocSelf, p.allocSampled, p.allocCalls)
	l.gc += p.gc
	l.gcCopied += p.copied
	l.hooks += p.hookTime
	if markRegion {
		l.mrGC += p.gc
	}
	if server {
		l.loopSelf += p.selfTime()
	} else {
		l.workloadSelf += p.selfTime()
	}
	if p.rootsPeak > l.rootsPeak {
		l.rootsPeak = p.rootsPeak
	}
}
