package sim

import (
	"runtime"
	"sync/atomic"

	"d2m/internal/mem"
	"d2m/internal/trace"
)

// feedDepth is the number of BlockAccesses-sized buffers in the feed's
// ring: enough for the producer to run a few blocks ahead of the
// consumer, small enough (4 × 24 KiB) to stay cache-resident.
const feedDepth = 4

// feed is the engine's single block-delivery path. A run phase
// (Warmup, Measure, MeasureLanes) starts it with the number of accesses
// the phase needs (its window; the longest active lane's for a lane
// group), steps whatever take hands back, and finishes it before
// returning.
//
// Streams never depend on the machine's state, so when the source is
// trace.Detached and a processor is spare (claimProcessor), the draws
// run on a producer goroutine that fills the ring while the consumer
// walks the hierarchy. Otherwise the consumer fills the same buffers
// itself, inline. Both modes draw the stream in the same Fill calls
// (BlockAccesses at a time, the last one short) and never past the
// phase's count, so the step sequence, every Report and the stream's
// position at the phase boundary are identical whichever mode ran.
type feed struct {
	src  trace.Stream
	bs   trace.BlockStream // src's native Fill, nil for Next-only sources
	bufs [feedDepth][]mem.Access
	left int          // accesses not yet drawn (inline mode)
	cur  []mem.Access // undelivered rest of the current buffer
	held []mem.Access // the whole buffer cur came from (pipelined mode)

	// Pipelined mode: the producer moves buffers from free to full and
	// closes full when it exits; stop asks it to exit early. A panic in
	// the source is recorded in panicked before full closes and is
	// re-raised by the consumer in order, after the blocks drawn before it.
	pipelined bool
	free      chan []mem.Access
	full      chan []mem.Access
	stop      chan struct{}
	panicked  any
}

// newFeed allocates the ring once per engine.
func newFeed() feed {
	var f feed
	for i := range f.bufs {
		f.bufs[i] = make([]mem.Access, BlockAccesses)
	}
	return f
}

// busy counts, process-wide, the goroutines running engine phases: one
// consumer per phase plus one producer per pipelined phase.
var busy atomic.Int32

// claimProcessor reserves a processor for a producer if one is left
// after every busy goroutine has its own. When concurrent runs (a
// service's workers) already occupy the processors, a producer would
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

// start begins a phase that will consume at most total accesses of src.
func (f *feed) start(src trace.Stream, total int) {
	f.src, f.left, f.cur, f.held = src, total, nil, nil
	f.bs, _ = src.(trace.BlockStream)
	busy.Add(1)
	_, detached := src.(trace.Detached)
	f.pipelined = detached && claimProcessor()
	if !f.pipelined {
		return
	}
	// Each channel can hold every buffer of the ring, so no send blocks.
	f.free = make(chan []mem.Access, feedDepth)
	f.full = make(chan []mem.Access, feedDepth)
	f.stop = make(chan struct{})
	f.panicked = nil
	for _, b := range f.bufs {
		f.free <- b
	}
	go f.produce(total)
}

// produce is the producer goroutine: it draws total accesses into the
// ring a buffer at a time. full has room for every buffer, so the only
// place it waits is for a free one.
func (f *feed) produce(total int) {
	defer close(f.full)
	defer func() {
		if v := recover(); v != nil {
			f.panicked = v
		}
	}()
	for total > 0 {
		var buf []mem.Access
		select {
		case buf = <-f.free:
		case <-f.stop:
			return
		}
		n := f.fill(buf[:min(total, len(buf))])
		total -= n
		f.full <- buf[:n]
	}
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

// take returns the next at most want (> 0) accesses of the phase. The
// slice stays valid until the following take: the consumer steps it in
// full before asking for more, so its buffer can be recycled then.
func (f *feed) take(want int) []mem.Access {
	if len(f.cur) == 0 {
		if f.pipelined {
			f.receive()
		} else {
			n := f.fill(f.bufs[0][:min(f.left, BlockAccesses)])
			f.left -= n
			f.cur = f.bufs[0][:n]
		}
	}
	n := min(want, len(f.cur))
	blk := f.cur[:n]
	f.cur = f.cur[n:]
	return blk
}

// receive recycles the drained buffer and waits for the next full one,
// re-raising the producer's panic once the blocks before it are used.
func (f *feed) receive() {
	if f.held != nil {
		f.free <- f.held[:cap(f.held)]
	}
	buf, ok := <-f.full
	if !ok {
		f.held = nil
		if v := f.panicked; v != nil {
			panic(v)
		}
		panic("sim: feed drawn past its phase")
	}
	f.held, f.cur = buf, buf
}

// finish ends the phase: it stops the producer, if one runs, and joins
// it by draining full until the producer closes it. Every phase defers
// it, so cancellation, an early lane exit and a panic all return with no
// goroutine left drawing the stream.
func (f *feed) finish() {
	if f.pipelined {
		f.pipelined = false
		close(f.stop)
		for range f.full {
		}
		busy.Add(-1)
	}
	busy.Add(-1)
	f.src, f.bs, f.cur, f.held = nil, nil, nil, nil
}
