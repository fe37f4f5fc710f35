package sim

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"d2m/internal/baseline"
	"d2m/internal/core"
	"d2m/internal/mem"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

// fakeMachine misses on first touch of a line (fixed latency), hits
// afterwards.
type fakeMachine struct {
	seen    map[mem.LineAddr]bool
	latency uint64
	resets  int
}

func newFake(lat uint64) *fakeMachine {
	return &fakeMachine{seen: map[mem.LineAddr]bool{}, latency: lat}
}

func (f *fakeMachine) Access(a mem.Access) (uint64, bool) {
	line := a.Addr.Line()
	if f.seen[line] {
		return 2, true
	}
	f.seen[line] = true
	return f.latency, false
}

func (f *fakeMachine) ResetMeasurement() { f.resets++ }

func TestEngineCountsAndResets(t *testing.T) {
	f := newFake(100)
	e := NewEngine(f, 1)
	stream := trace.StreamFunc(func() mem.Access {
		return mem.Access{Node: 0, Addr: 0x1000, Kind: mem.Load}
	})
	rep := e.Run(trace.NewInterleaver([]trace.Stream{stream}), 10, 100)
	if f.resets != 1 {
		t.Errorf("resets = %d, want 1", f.resets)
	}
	if rep.Accesses != 100 {
		t.Errorf("Accesses = %d", rep.Accesses)
	}
	if rep.FetchAccesses != 0 || rep.Instructions != 0 {
		t.Errorf("fetch stats for a load-only stream: %d/%d", rep.FetchAccesses, rep.Instructions)
	}
	// All hits after warmup: cycles == accesses (base cost only).
	if rep.Cycles != 100 {
		t.Errorf("Cycles = %d, want 100", rep.Cycles)
	}
}

func TestEngineStallModel(t *testing.T) {
	// Two lines: the first access after reset misses with latency 100.
	var toggle bool
	f := newFake(100)
	e := NewEngine(f, 1)
	next := mem.Addr(0)
	stream := trace.StreamFunc(func() mem.Access {
		toggle = !toggle
		kind := mem.Load
		if !toggle {
			kind = mem.IFetch
		}
		next += mem.PageBytes
		return mem.Access{Node: 0, Addr: next, Kind: kind}
	})
	rep := e.Run(trace.NewInterleaver([]trace.Stream{stream}), 0, 2)
	// One load miss (stall 35) + one ifetch miss (stall 100) + 2 base.
	want := uint64(2 + 35 + 100)
	if rep.Cycles != want {
		t.Errorf("Cycles = %d, want %d", rep.Cycles, want)
	}
	if rep.FetchAccesses != 1 {
		t.Errorf("FetchAccesses = %d", rep.FetchAccesses)
	}
	if rep.Instructions != InstructionsPerFetch {
		t.Errorf("Instructions = %d", rep.Instructions)
	}
}

func TestLateHits(t *testing.T) {
	// Access the same line twice back-to-back: the second hits while
	// the miss is still outstanding.
	f := newFake(1000)
	e := NewEngine(f, 1)
	n := 0
	stream := trace.StreamFunc(func() mem.Access {
		n++
		return mem.Access{Node: 0, Addr: 0x40, Kind: mem.Load}
	})
	rep := e.Run(trace.NewInterleaver([]trace.Stream{stream}), 0, 2)
	if rep.LateHitsD != 1 {
		t.Errorf("LateHitsD = %d, want 1", rep.LateHitsD)
	}
	if rep.LateHitRatioD() != 0.5 {
		t.Errorf("LateHitRatioD = %v", rep.LateHitRatioD())
	}
}

func TestReportRatios(t *testing.T) {
	r := Report{Cycles: 100, Instructions: 300, Accesses: 10, FetchAccesses: 4, LateHitsI: 2, LateHitsD: 3}
	if r.IPA() != 3 {
		t.Errorf("IPA = %v", r.IPA())
	}
	if r.LateHitRatioI() != 0.5 {
		t.Errorf("LateHitRatioI = %v", r.LateHitRatioI())
	}
	if r.LateHitRatioD() != 0.5 {
		t.Errorf("LateHitRatioD = %v", r.LateHitRatioD())
	}
	var zero Report
	if zero.IPA() != 0 || zero.LateHitRatioI() != 0 || zero.LateHitRatioD() != 0 {
		t.Error("zero report ratios not zero")
	}
}

// End-to-end: a real workload on both hierarchies, deterministic.
func TestEndToEndDeterministic(t *testing.T) {
	sp, _ := workloads.ByName("fft")

	run := func() (Report, Report) {
		ccfg := core.DefaultConfig()
		ccfg.Nodes = 4
		cs := core.NewSystem(ccfg)
		ce := NewEngine(WrapCore(cs), 4)
		crep := ce.Run(trace.NewInterleaver(sp.Streams(4)), 5000, 20000)

		bcfg := baseline.Base2L()
		bcfg.Nodes = 4
		bs := baseline.NewSystem(bcfg, false)
		be := NewEngine(WrapBaseline(bs), 4)
		brep := be.Run(trace.NewInterleaver(sp.Streams(4)), 5000, 20000)
		return crep, brep
	}
	c1, b1 := run()
	c2, b2 := run()
	if c1.Cycles != c2.Cycles || b1.Cycles != b2.Cycles {
		t.Error("simulation not deterministic")
	}
	if c1.Cycles == 0 || b1.Cycles == 0 {
		t.Error("degenerate cycle counts")
	}
	if c1.Instructions != b1.Instructions {
		t.Errorf("instruction counts differ across hierarchies: %d vs %d", c1.Instructions, b1.Instructions)
	}
}

// The miss-latency histogram must report exact percentiles: a machine
// whose misses are 90% at 10 cycles and 10% at 200 cycles has P50 = 10
// and P99 = 200.
func TestMissLatencyPercentiles(t *testing.T) {
	n := 0
	m := &percentileMachine{}
	e := NewEngine(m, 1)
	stream := trace.StreamFunc(func() mem.Access {
		n++
		return mem.Access{Node: 0, Addr: mem.Addr(n) << 6, Kind: mem.Load} // every access a new line -> all misses
	})
	rep := e.Run(trace.NewInterleaver([]trace.Stream{stream}), 0, 1000)
	if got := rep.MissLatencyPercentile(0.50); got != 10 {
		t.Errorf("P50 = %d, want 10", got)
	}
	if got := rep.MissLatencyPercentile(0.89); got != 10 {
		t.Errorf("P89 = %d, want 10", got)
	}
	if got := rep.MissLatencyPercentile(0.95); got != 200 {
		t.Errorf("P95 = %d, want 200", got)
	}
	if got := rep.MissLatencyPercentile(0.99); got != 200 {
		t.Errorf("P99 = %d, want 200", got)
	}
}

// percentileMachine misses every access: 10 cycles, except every 10th
// access takes 200.
type percentileMachine struct{ n int }

func (p *percentileMachine) Access(a mem.Access) (uint64, bool) {
	p.n++
	if p.n%10 == 0 {
		return 200, false
	}
	return 10, false
}
func (p *percentileMachine) ResetMeasurement() {}

func TestMissLatencyPercentileEmpty(t *testing.T) {
	var rep Report
	if got := rep.MissLatencyPercentile(0.99); got != 0 {
		t.Errorf("empty report percentile = %d, want 0", got)
	}
}

// Overflow latencies saturate into the last bucket instead of panicking.
func TestMissLatencyOverflowBucket(t *testing.T) {
	f := newFake(1 << 20)
	e := NewEngine(f, 1)
	n := 0
	stream := trace.StreamFunc(func() mem.Access {
		n++
		return mem.Access{Node: 0, Addr: mem.Addr(n) << 6, Kind: mem.Load}
	})
	rep := e.Run(trace.NewInterleaver([]trace.Stream{stream}), 0, 10)
	if got := rep.MissLatencyPercentile(0.5); got != missLatBuckets-1 {
		t.Errorf("overflow percentile = %d, want %d", got, missLatBuckets-1)
	}
}

// withProcs runs fn with GOMAXPROCS set to n: 1 makes the feed fill
// inline, more lets it draw Detached sources on its helper goroutine.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// countingMachine wraps fakeMachine with an access counter (reset at
// the measurement boundary) and records, at the first access of a
// phase, whether its engine's feed was running a helper.
type countingMachine struct {
	*fakeMachine
	eng       *Engine // set once the engine exists
	accesses  int
	pipelined bool
}

func (c *countingMachine) Access(a mem.Access) (uint64, bool) {
	if c.accesses == 0 {
		c.pipelined = c.eng.feed.pipelined
	}
	c.accesses++
	return c.fakeMachine.Access(a)
}

func (c *countingMachine) ResetMeasurement() {
	c.accesses = 0
	c.fakeMachine.ResetMeasurement()
}

// freeingMachine gives back one busy count, as a run on another
// goroutine ending would, at its at-th measured access, and records
// whether its feed had a helper by the last access.
type freeingMachine struct {
	countingMachine
	at         int
	lateHelper bool
}

func (c *freeingMachine) Access(a mem.Access) (uint64, bool) {
	if c.accesses == c.at {
		busy.Add(-1)
	}
	c.lateHelper = c.eng.feed.pipelined
	return c.countingMachine.Access(a)
}

// epochFake is an EpochMachine whose ticks change its miss latency, so
// a tick at the wrong access shows in the Report.
type epochFake struct {
	countingMachine
	every, ticks int
}

func (e *epochFake) EpochLen() int { return e.every }
func (e *epochFake) EpochTick() {
	e.ticks++
	e.latency = 50 + uint64(e.ticks%7)*30
}

func catalogStream(t *testing.T, nodes int) trace.Stream {
	t.Helper()
	sp, ok := workloads.ByName("tpc-c")
	if !ok {
		t.Fatal("tpc-c not in the catalogue")
	}
	return trace.NewInterleaver(sp.Streams(nodes))
}

// Pipelined and inline delivery are indistinguishable: the same Reports
// for a plain machine, an EpochMachine whose epoch is not a multiple of
// BlockAccesses, a phase that starts inline and gains a helper mid-walk,
// and lane groups, one whose longest lane is cancelled mid-walk and one
// whose windows end mid-slab.
func TestFeedPipelinedMatchesInline(t *testing.T) {
	const nodes, warmup, measure = 4, 3000, 20_000
	type outcome struct {
		reports    map[int]Report
		ticks      int
		pipelining bool // a helper drew and timed the measured phase
	}
	cases := []struct {
		name string
		run  func(t *testing.T) outcome
	}{
		{"plain", func(t *testing.T) outcome {
			m := &countingMachine{fakeMachine: newFake(100)}
			m.eng = NewEngine(m, nodes)
			rep := m.eng.Run(catalogStream(t, nodes), warmup, measure)
			return outcome{reports: map[int]Report{0: rep}, pipelining: m.pipelined}
		}},
		{"epoch", func(t *testing.T) outcome {
			m := &epochFake{countingMachine: countingMachine{fakeMachine: newFake(100)}, every: 1500}
			if m.every%BlockAccesses == 0 {
				t.Fatal("epoch must not align with blocks")
			}
			m.eng = NewEngine(m, nodes)
			rep := m.eng.Run(catalogStream(t, nodes), warmup, measure)
			return outcome{reports: map[int]Report{0: rep}, ticks: m.ticks, pipelining: m.pipelined}
		}},
		{"lanes", func(t *testing.T) outcome {
			m := &epochFake{countingMachine: countingMachine{fakeMachine: newFake(100)}, every: 1500}
			e := NewEngine(m, nodes)
			m.eng = e
			src := catalogStream(t, nodes)
			if err := e.Warmup(context.Background(), src, warmup); err != nil {
				t.Fatal(err)
			}
			out := outcome{reports: map[int]Report{}}
			// Lane 3 is cancelled once the walk passes 9000 accesses,
			// so the group stops at lane 2's boundary.
			active := func(lane int) bool { return lane != 3 || m.accesses < 9000 }
			err := e.MeasureLanes(context.Background(), src, []int{3000, 7000, 12_000, measure}, active,
				func(lane int, rep Report) { out.reports[lane] = rep })
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := out.reports[3]; ok || len(out.reports) != 3 {
				t.Fatalf("lanes captured %d reports (lane 3 present: %v), want lanes 0-2 only", len(out.reports), ok)
			}
			if m.accesses != 12_000 {
				t.Fatalf("walk stepped %d accesses, want 12000 (lane 2's window)", m.accesses)
			}
			out.ticks, out.pipelining = m.ticks, m.pipelined
			return out
		}},
		// The measured phase starts while another run holds the spare
		// processor and picks it up mid-walk once that run ends.
		{"freed", func(t *testing.T) outcome {
			m := &freeingMachine{countingMachine: countingMachine{fakeMachine: newFake(100)}, at: 6000}
			m.eng = NewEngine(m, nodes)
			src := catalogStream(t, nodes)
			if err := m.eng.Warmup(context.Background(), src, warmup); err != nil {
				t.Fatal(err)
			}
			busy.Add(1)
			rep, err := m.eng.Measure(context.Background(), src, measure)
			if err != nil {
				t.Fatal(err)
			}
			if m.pipelined {
				t.Fatal("the phase claimed a helper while the other run held the processor")
			}
			return outcome{reports: map[int]Report{0: rep}, pipelining: m.lateHelper}
		}},
		// Distinct windows ending mid-slab, on a slab boundary and at
		// the same step as another lane: every capture syncs the timing
		// stage while the helper still has segments to time and slabs
		// to refill.
		{"lanes-mid-slab", func(t *testing.T) outcome {
			m := &countingMachine{fakeMachine: newFake(100)}
			e := NewEngine(m, nodes)
			m.eng = e
			src := catalogStream(t, nodes)
			if err := e.Warmup(context.Background(), src, warmup); err != nil {
				t.Fatal(err)
			}
			out := outcome{reports: map[int]Report{}}
			windows := []int{5000, 2*BlockAccesses + 1, 8 * BlockAccesses, 5000, measure}
			err := e.MeasureLanes(context.Background(), src, windows, func(int) bool { return true },
				func(lane int, rep Report) { out.reports[lane] = rep })
			if err != nil {
				t.Fatal(err)
			}
			if len(out.reports) != len(windows) {
				t.Fatalf("lanes captured %d reports, want %d", len(out.reports), len(windows))
			}
			for lane, w := range windows {
				if got := out.reports[lane].Accesses; got != uint64(w) {
					t.Fatalf("lane %d report covers %d accesses, want its window %d", lane, got, w)
				}
			}
			out.pipelining = m.pipelined
			return out
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var inline, piped outcome
			withProcs(1, func() { inline = c.run(t) })
			withProcs(2, func() { piped = c.run(t) })
			if inline.pipelining || !piped.pipelining {
				t.Fatalf("helper live: inline %v, pipelined %v; want false, true", inline.pipelining, piped.pipelining)
			}
			if inline.ticks != piped.ticks {
				t.Errorf("epoch ticks: inline %d, pipelined %d", inline.ticks, piped.ticks)
			}
			if !reflect.DeepEqual(inline.reports, piped.reports) {
				t.Errorf("reports differ:\n inline    %+v\n pipelined %+v", inline.reports, piped.reports)
			}
		})
	}
}

// A helper runs only on a spare processor: with two processors the
// first phase pipelines, a concurrent second one fills inline, and
// finishing releases every claim. Neither phase takes anything, so the
// first one's helper fills the ring and waits there until finish
// stops it.
func TestFeedClaimsSpareProcessor(t *testing.T) {
	withProcs(2, func() {
		base := runtime.NumGoroutine()
		a, b := newFeed(), newFeed()
		a.start(catalogStream(t, 2), 1<<20, nil)
		b.start(catalogStream(t, 2), 1<<20, nil)
		pa, pb := a.pipelined, b.pipelined
		for deadline := time.Now().Add(2 * time.Second); pa && len(a.full) < feedDepth; {
			if time.Now().After(deadline) {
				t.Fatal("the helper never filled the ring")
			}
			time.Sleep(time.Millisecond)
		}
		b.finish()
		a.finish()
		if !pa || pb {
			t.Fatalf("pipelined: first phase %v, concurrent second %v; want true, false", pa, pb)
		}
		if n := busy.Load(); n != 0 {
			t.Fatalf("%d busy goroutines counted after both phases finished", n)
		}
		assertJoined(t, &a)
		settleGoroutines(t, base)
	})
}

// Each phase draws exactly its own access count: after Warmup(n) and
// Measure(m) the source continues at the (n+1)th and (n+m+1)th access
// of a fresh twin, whichever way the blocks were drawn. Both phases are
// longer than the ring, so with two processors both pipeline.
func TestFeedDrawsExactly(t *testing.T) {
	const nodes, warmup, measure = 3, (feedDepth+3)*BlockAccesses + 7, (feedDepth+2)*BlockAccesses + 5
	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			e := NewEngine(newFake(100), nodes)
			src, twin := catalogStream(t, nodes), catalogStream(t, nodes)
			if err := e.Warmup(context.Background(), src, warmup); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < warmup; i++ {
				twin.Next()
			}
			if got, want := src.Next(), twin.Next(); got != want {
				t.Fatalf("GOMAXPROCS=%d: after Warmup(%d) the source yields %+v, its twin %+v", procs, warmup, got, want)
			}
			if _, err := e.Measure(context.Background(), src, measure); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < measure; i++ {
				twin.Next()
			}
			if got, want := src.Next(), twin.Next(); got != want {
				t.Fatalf("GOMAXPROCS=%d: after Measure(%d) the source yields %+v, its twin %+v", procs, measure, got, want)
			}
		})
	}
}

// assertJoined checks that finish returned only after the helper
// closed done, its last act before exiting.
func assertJoined(t *testing.T, f *feed) {
	t.Helper()
	select {
	case <-f.done:
	default:
		t.Fatal("finish returned before the helper exited")
	}
}

// settleGoroutines waits briefly for the goroutine count to fall back to
// want: a joined helper has closed done but may not have
// returned yet. A helper that was never joined stays blocked, so the
// count never settles.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines live after the phase, %d before", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// cancellingMachine cancels its run after a fixed number of accesses.
type cancellingMachine struct {
	countingMachine
	after  int
	cancel context.CancelFunc
}

func (c *cancellingMachine) Access(a mem.Access) (uint64, bool) {
	if c.accesses == c.after {
		c.cancel()
	}
	return c.countingMachine.Access(a)
}

// A phase no longer than the ring runs inline: it never claims a
// processor for a helper, and finishing it returns busy to zero. One
// access more and the phase pipelines.
func TestFeedShortPhaseInline(t *testing.T) {
	withProcs(2, func() {
		for _, total := range []int{BlockAccesses / 2, feedDepth * BlockAccesses, feedDepth*BlockAccesses + 1} {
			var during int32
			m := &countingMachine{fakeMachine: newFake(100)}
			probe := &busyProbe{countingMachine: m, busy: &during}
			e := NewEngine(probe, 2)
			m.eng = e
			if _, err := e.Measure(context.Background(), catalogStream(t, 2), total); err != nil {
				t.Fatal(err)
			}
			wantPiped := total > feedDepth*BlockAccesses
			wantBusy := int32(1)
			if wantPiped {
				wantBusy = 2
			}
			if m.pipelined != wantPiped || during != wantBusy {
				t.Errorf("%d-access phase: pipelined %v with %d busy, want %v with %d", total, m.pipelined, during, wantPiped, wantBusy)
			}
			if n := busy.Load(); n != 0 {
				t.Fatalf("%d-access phase left %d busy goroutines counted", total, n)
			}
		}
	})
}

// busyProbe records the process-wide busy count at its first access.
type busyProbe struct {
	*countingMachine
	busy *int32
}

func (b *busyProbe) Access(a mem.Access) (uint64, bool) {
	if b.accesses == 0 {
		*b.busy = busy.Load()
	}
	return b.countingMachine.Access(a)
}

// A cancelled Measure stops and joins its helper before returning, with
// the timing stage running on the helper when the cancellation hits.
func TestFeedCancelJoinsProducer(t *testing.T) {
	withProcs(2, func() {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		m := &cancellingMachine{countingMachine: countingMachine{fakeMachine: newFake(100)}, after: 5000, cancel: cancel}
		e := NewEngine(m, 2)
		m.eng = e
		rep, err := e.Measure(ctx, catalogStream(t, 2), 1_000_000)
		if err != context.Canceled {
			t.Fatalf("Measure returned %v, want context.Canceled", err)
		}
		if rep.Accesses != 0 {
			t.Errorf("cancelled Measure returned a report with %d accesses", rep.Accesses)
		}
		if !m.pipelined {
			t.Fatal("the walk was not drawn and timed on a helper")
		}
		assertJoined(t, &e.feed)
		settleGoroutines(t, base)
	})
}

// traceBytes encodes n single-node loads of consecutive lines as a v2
// trace. A corrupt index >= 0 gives that record an invalid kind.
func traceBytes(t *testing.T, n, corrupt int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := trace.NewFileWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := fw.Append(mem.Access{Addr: mem.Addr(i) << 6, Kind: mem.Load}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if corrupt >= 0 {
		// After the 8-byte header, record 0 is a control byte and a
		// one-byte varint; every later record's 64-byte delta takes two.
		off := 8
		if corrupt > 0 {
			off += 2 + 3*(corrupt-1)
		}
		b[off] |= 3
	}
	return b
}

// A panic on the helper reaches the caller, where recover() sees the
// original value, with the helper gone. A panic in the source's Fill
// surfaces after exactly the blocks drawn before it were stepped, while
// their timing segments are still queued behind the consumer; one in
// the timing stage surfaces at the consumer's next hand-off.
func TestFeedFillPanicReachesCaller(t *testing.T) {
	cases := []struct {
		name, want string
		stepped    int
		src        func(t *testing.T) trace.Stream
	}{
		{"non-looping reader past its end", "sim: block stream exhausted mid-run", 3000, func(t *testing.T) trace.Stream {
			rd, err := trace.ReadTrace(bytes.NewReader(traceBytes(t, 3000, -1)))
			if err != nil {
				t.Fatal(err)
			}
			return rd
		}},
		// The Fill that meets record 2500 panics, so only the two whole
		// blocks before it are stepped — inline delivery does the same.
		{"file reader with a corrupt record", "trace: record 2500: trace: invalid kind 3", 2 * BlockAccesses, func(t *testing.T) trace.Stream {
			b := traceBytes(t, 3000, 2500)
			fr, err := trace.NewFileReader(bytes.NewReader(b), int64(len(b)))
			if err != nil {
				t.Fatal(err)
			}
			return fr
		}},
		// Node 1 of a one-node engine: the fake machine accepts it, the
		// timing stage's clocks do not. The helper is some segments
		// behind when it panics, so the machine's count is not fixed.
		{"timing stage out of range", "runtime error: index out of range [1] with length 1", -1, func(t *testing.T) trace.Stream {
			n := 0
			return trace.NewInterleaver([]trace.Stream{trace.StreamFunc(func() mem.Access {
				n++
				return mem.Access{Node: n / 7000, Addr: mem.Addr(n) << 6, Kind: mem.Load}
			})})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			withProcs(2, func() {
				base := runtime.NumGoroutine()
				m := &countingMachine{fakeMachine: newFake(100)}
				m.eng = NewEngine(m, 1)
				var got any
				func() {
					defer func() { got = recover() }()
					m.eng.Measure(context.Background(), c.src(t), 10_000)
				}()
				if msg := fmt.Sprint(got); got == nil || !strings.HasPrefix(msg, c.want) {
					t.Fatalf("recovered %v, want a panic starting %q", got, c.want)
				}
				if c.stepped >= 0 && m.accesses != c.stepped {
					t.Errorf("stepped %d accesses before the panic, want %d", m.accesses, c.stepped)
				}
				if !m.pipelined {
					t.Error("the phase was not drawn and timed on a helper")
				}
				assertJoined(t, &m.eng.feed)
				settleGoroutines(t, base)
			})
		})
	}
}
