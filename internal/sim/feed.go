package sim

import (
	"runtime"
	"sync/atomic"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// feedDepth is the number of BlockAccesses-sized slabs in the feed's
// ring: enough for the helper to run a few blocks ahead of the
// consumer, small enough (4 × 33 KiB) to stay cache-resident.
const feedDepth = 4

// slab is one ring buffer, or a segment of one: a block of the stream
// and, once the machine stage has stepped it, each access's outcome
// (lat[i], hit[i] for acc[i]).
type slab struct {
	acc []mem.Access
	lat []uint64
	hit []bool
}

func (s slab) sub(i, j int) slab { return slab{s.acc[i:j], s.lat[i:j], s.hit[i:j]} }

// whole re-extends a slab handed out from the start of a ring buffer to
// the full buffer.
func (s slab) whole() slab {
	return slab{s.acc[:cap(s.acc)], s.lat[:cap(s.lat)], s.hit[:cap(s.hit)]}
}

// feed is the engine's single block-delivery path and the home of its
// timing stage. A run phase (Warmup, Measure, MeasureLanes) starts it
// with the number of accesses the phase needs (its window; the longest
// active lane's for a lane group) and, for a measured phase, the
// timing stage; takes segments, runs each through the machine stage and
// hands it back with stepped; syncs before it reads the Report; and
// finishes the feed before returning.
//
// Neither the stream nor the timing model depends on the machine's
// state, so when the source is trace.Detached, more than the ring holds
// is left to draw and a processor is spare (pipeline), both run on one
// helper goroutine: it times each stepped segment behind the consumer,
// in step order, and refills a slab ahead of the consumer once the
// consumer has stepped all of it. Otherwise the consumer fills the same
// slabs itself and times each segment right after stepping it. Both
// modes draw the stream in the same Fill calls (BlockAccesses at a
// time, the last one short) and never past the phase's count, and time
// the same segments in the same order, so every Report and the stream's
// position at the phase boundary are identical whichever mode ran.
type feed struct {
	src      trace.Stream
	bs       trace.BlockStream // src's native Fill, nil for Next-only sources
	ring     [feedDepth]slab
	t        *timing // the phase's timing stage, nil for an untimed phase
	left     int     // accesses not yet drawn (inline mode)
	detached bool    // src may be drawn on a helper
	cur      slab    // undelivered rest of the current slab
	held     slab    // the whole slab cur came from (pipelined mode)

	// Pipelined mode. The helper sends drawn slabs on full and closes it
	// once the phase is drawn or a Fill panicked; the consumer sends
	// stepped segments, drained slabs and sync requests on back, and the
	// helper answers a sync on ack. stop asks the helper to exit, and
	// it closes done when it has. A panic in Fill is recorded in
	// fillPanic before full closes, and the helper goes on timing, so the
	// consumer re-raises it exactly where inline delivery would: when it
	// asks for the block that failed. A panic in the timing stage ends
	// the helper; it is recorded in timePanic before done closes, and
	// the consumer re-raises it at its next hand-off, sync or take.
	pipelined bool
	full      chan slab
	back      chan handback
	ack       chan struct{}
	stop      chan struct{}
	done      chan struct{}
	fillPanic any
	timePanic any
}

// handback is one message from the consumer to the helper, acted on in
// this order: time seg, answer sync, refill drained.
type handback struct {
	seg     slab // a stepped segment to time (nil acc: none)
	sync    bool
	drained slab // a fully stepped slab to refill (nil acc: none)
}

// newFeed allocates the ring once per engine.
func newFeed() feed {
	var f feed
	for i := range f.ring {
		f.ring[i] = slab{make([]mem.Access, BlockAccesses), make([]uint64, BlockAccesses), make([]bool, BlockAccesses)}
	}
	return f
}

// busy counts, process-wide, the goroutines running engine phases: one
// consumer per phase plus one helper per pipelined phase.
var busy atomic.Int32

// claimProcessor reserves a processor for a helper if one is left
// after every busy goroutine has its own. When concurrent runs (a
// service's workers) already occupy the processors, a helper would
// only time-slice with them, and its hand-offs then cost more than the
// overlap hides. With GOMAXPROCS 1 no processor is ever spare.
func claimProcessor() bool {
	procs := int32(runtime.GOMAXPROCS(0))
	for n := busy.Load(); n < procs; n = busy.Load() {
		if busy.CompareAndSwap(n, n+1) {
			return true
		}
	}
	return false
}

// start begins a phase that will consume at most total accesses of src
// and time them with t (nil: untimed).
func (f *feed) start(src trace.Stream, total int, t *timing) {
	f.src, f.t, f.left, f.cur, f.held = src, t, total, slab{}, slab{}
	f.bs, _ = src.(trace.BlockStream)
	_, f.detached = src.(trace.Detached)
	busy.Add(1)
	f.pipeline()
}

// pipeline moves the rest of the phase onto a helper if the source is
// Detached, more than the ring holds is left to draw, and a processor
// is spare. start tries it, and so does every take that finds the
// inline slab drained, so a phase that started while the processors
// were busy picks up a processor freed by a run that finished. A phase
// no longer than the ring runs inline: its helper could only start as
// the consumer finishes.
func (f *feed) pipeline() {
	if !f.detached || f.left <= feedDepth*BlockAccesses || !claimProcessor() {
		return
	}
	f.pipelined = true
	// full can hold every slab of the ring, so the helper never blocks
	// sending on it; back is roomy enough that the consumer rarely waits.
	f.full = make(chan slab, feedDepth)
	f.back = make(chan handback, 4*feedDepth)
	f.ack = make(chan struct{}, 1)
	f.stop = make(chan struct{})
	f.done = make(chan struct{})
	f.fillPanic, f.timePanic = nil, nil
	go f.help(f.left)
}

// help is the helper goroutine: it draws total accesses into the ring a
// slab at a time and times the segments the consumer hands back, until
// finish stops it.
func (f *feed) help(total int) {
	defer close(f.done)
	defer func() {
		if v := recover(); v != nil {
			f.timePanic = v
		}
	}()
	draw := func(s slab) {
		if total == 0 {
			return // the phase is drawn, or a Fill panicked
		}
		n, v := f.safeFill(s.acc[:min(total, len(s.acc))])
		if v != nil {
			f.fillPanic, total = v, 0
			close(f.full)
			return
		}
		total -= n
		f.full <- s.sub(0, n)
		if total == 0 {
			close(f.full)
		}
	}
	for _, s := range f.ring {
		draw(s)
	}
	for {
		select {
		case <-f.stop:
			return
		case m := <-f.back:
			if m.seg.acc != nil {
				f.t.step(m.seg)
			}
			if m.sync {
				f.ack <- struct{}{}
			}
			if m.drained.acc != nil {
				draw(m.drained)
			}
		}
	}
}

// safeFill is fill with a panic returned instead of raised.
func (f *feed) safeFill(buf []mem.Access) (n int, panicked any) {
	defer func() { panicked = recover() }()
	return f.fill(buf), nil
}

// fill draws the stream's next accesses into buf. A block source
// returning zero accesses is a programming error: engine sources are
// either infinite generators or looping trace readers.
func (f *feed) fill(buf []mem.Access) int {
	if f.bs == nil {
		return trace.FillFrom(f.src, buf)
	}
	n := f.bs.Fill(buf)
	if n <= 0 {
		panic("sim: block stream exhausted mid-run")
	}
	return n
}

// take returns the next at most want (> 0) accesses of the phase, with
// room for their outcomes. The segment stays valid until it is handed
// back with stepped, which must happen before the following take.
func (f *feed) take(want int) slab {
	if len(f.cur.acc) == 0 {
		if !f.pipelined {
			f.pipeline()
		}
		if f.pipelined {
			f.receive()
		} else {
			n := f.fill(f.ring[0].acc[:min(f.left, BlockAccesses)])
			f.left -= n
			f.cur = f.ring[0].sub(0, n)
		}
	}
	n := min(want, len(f.cur.acc))
	s := f.cur.sub(0, n)
	f.cur = f.cur.sub(n, len(f.cur.acc))
	return s
}

// receive waits for the next drawn slab, re-raising a Fill panic once
// the slabs drawn before it are used.
func (f *feed) receive() {
	select {
	case s, ok := <-f.full:
		if !ok {
			if v := f.fillPanic; v != nil {
				panic(v)
			}
			panic("sim: feed drawn past its phase")
		}
		f.held, f.cur = s, s
	case <-f.done:
		panic(f.timePanic)
	}
}

// stepped hands back a segment take returned, once the machine stage
// has written its outcomes: the timing stage consumes it now (inline)
// or on the helper, which also refills the slab once it is drained.
func (f *feed) stepped(s slab) {
	if !f.pipelined {
		if f.t != nil {
			f.t.step(s)
		}
		return
	}
	var m handback
	if f.t != nil {
		m.seg = s
	}
	if len(f.cur.acc) == 0 {
		m.drained, f.held = f.held.whole(), slab{}
	}
	if m.seg.acc != nil || m.drained.acc != nil {
		f.send(m)
	}
}

// sync returns once the timing stage has consumed every segment handed
// back so far, so the consumer may read it.
func (f *feed) sync() {
	if !f.pipelined {
		return
	}
	f.send(handback{sync: true})
	select {
	case <-f.ack:
	case <-f.done:
		panic(f.timePanic)
	}
}

func (f *feed) send(m handback) {
	select {
	case f.back <- m:
	case <-f.done:
		panic(f.timePanic)
	}
}

// finish ends the phase: it stops the helper, if one runs, and joins it.
// Every phase defers it, so cancellation, an early lane exit and a
// panic all return with no goroutine left drawing the stream or timing,
// and the next phase reuses the ring and the timing state alone.
func (f *feed) finish() {
	if f.pipelined {
		f.pipelined = false
		close(f.stop)
		<-f.done
		busy.Add(-1)
	}
	busy.Add(-1)
	f.src, f.bs, f.t, f.cur, f.held = nil, nil, nil, slab{}, slab{}
}
