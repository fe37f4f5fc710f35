// Package sim drives a simulated hierarchy with workload streams and
// derives the paper's timing metrics: per-node cycle counts under an
// out-of-order overlap model, late hits via an MSHR-style in-flight
// table, and the normalized speedups of Figure 7.
package sim

import (
	"context"

	"d2m/internal/baseline"
	"d2m/internal/core"
	"d2m/internal/mem"
	"d2m/internal/trace"
)

// Machine is any simulated memory hierarchy.
type Machine interface {
	// Access performs one access, returning its critical-path latency
	// and whether it hit in the L1.
	Access(a mem.Access) (latency uint64, l1Hit bool)
	// ResetMeasurement starts the measurement window: statistics reset,
	// hierarchy state preserved.
	ResetMeasurement()
}

// BlockMachine is the optional block-stepping interface a Machine may
// implement. AccessBlock performs the accesses of blk in order, writing
// the outcome of blk[i] to lat[i] and hit[i] (both at least len(blk)
// long), exactly as calling Access on each in turn would. It is the
// engine's machine stage: NewEngine resolves it once, and steps a
// plain Machine through a per-access adapter, so the engine makes one
// machine-stage call per delivered block whatever the machine, and a
// mechanism that implements it pays no dynamic dispatch per access.
type BlockMachine interface {
	Machine
	AccessBlock(blk []mem.Access, lat []uint64, hit []bool)
}

// perAccess adapts a plain Machine to BlockMachine.
type perAccess struct{ Machine }

func (m perAccess) AccessBlock(blk []mem.Access, lat []uint64, hit []bool) {
	for i, a := range blk {
		lat[i], hit[i] = m.Access(a)
	}
}

type coreMachine struct{ s *core.System }

func (m coreMachine) Access(a mem.Access) (uint64, bool) {
	r := m.s.Access(a)
	return r.Latency, r.L1Hit
}
func (m coreMachine) ResetMeasurement() { m.s.ResetMeasurement() }

// WrapCore adapts a D2M system to the Machine interface.
func WrapCore(s *core.System) Machine { return coreMachine{s} }

type baseMachine struct{ s *baseline.System }

func (m baseMachine) Access(a mem.Access) (uint64, bool) {
	r := m.s.Access(a)
	return r.Latency, r.L1Hit
}
func (m baseMachine) ResetMeasurement() { m.s.ResetMeasurement() }

// WrapBaseline adapts a baseline system to the Machine interface.
func WrapBaseline(s *baseline.System) Machine { return baseMachine{s} }

// EpochMachine is the optional interval hook a Machine may implement:
// the engine calls EpochTick once per EpochLen accesses, in warmup and
// measurement alike, so adaptive mechanisms can reconfigure themselves
// at fixed access counts. EpochLen is read once per run phase; a value
// <= 0 disables the hook. The engine aligns epoch phase to the start of
// each phase (Warmup, Measure, MeasureLanes), so a snapshot-restored
// run ticks at exactly the positions a fresh run does inside the
// measurement window — the warm-snapshot exactness contract.
//
// The hook is implemented by clipping each block the feed delivers to
// the next epoch boundary and ticking between blocks, so neither the
// machine stage's AccessBlock nor the timing stage sees it, and
// machines that do not implement the interface pay one nil-check per
// run phase and nothing per block.
type EpochMachine interface {
	Machine
	// EpochLen returns the interval in accesses between ticks (<= 0:
	// no ticks).
	EpochLen() int
	// EpochTick fires at each epoch boundary.
	EpochTick()
}

// CPU overlap model (§V-D): the simulated core is "a fairly aggressive
// OoO CPU", so "not all of this latency reduction will translate
// directly into performance". Instruction-miss stalls are unhidden (the
// frontend starves), load misses are partially hidden by the window, and
// store misses drain through the store buffer.
const (
	// InstructionsPerFetch converts fetch-group accesses to retired
	// instructions for the per-kilo-instruction metrics of Figure 5.
	InstructionsPerFetch = 6
	// baseCyclesPerAccess is the pipeline's cost of one access when the
	// memory system never stalls it.
	baseCyclesPerAccess = 1
	ifetchBlocking      = 1.0
	loadBlocking        = 0.35
	storeBlocking       = 0.05
	// lateHitBlocking applies to the residual wait of a hit under an
	// outstanding miss.
	lateHitBlocking = 0.30
)

// Report summarizes one measured run.
type Report struct {
	// Cycles is the machine time: the maximum per-node clock.
	Cycles uint64
	// NodeCycles are the individual per-node clocks.
	NodeCycles []uint64
	// Instructions is the retired-instruction estimate across all nodes.
	Instructions uint64
	// Accesses is the number of memory accesses in the window.
	Accesses uint64
	// LateHitsI and LateHitsD count L1 hits that waited on an
	// outstanding miss (the "Late Hits" columns of Table IV).
	LateHitsI, LateHitsD uint64
	// FetchAccesses counts instruction-fetch accesses.
	FetchAccesses uint64
	// missLat is the L1-miss latency histogram: missLat[c] counts
	// misses whose critical-path latency was c cycles (the last bucket
	// absorbs the overflow).
	missLat []uint64
	misses  uint64
}

// missLatBuckets bounds the latency histogram; DRAM round trips land
// well under this, so the overflow bucket stays empty in practice.
const missLatBuckets = 2048

// MissLatencyPercentile returns the latency (cycles) at or below which
// the given fraction (0 < p <= 1) of L1 misses completed.
func (r Report) MissLatencyPercentile(p float64) uint64 {
	if r.misses == 0 || len(r.missLat) == 0 {
		return 0
	}
	want := uint64(p * float64(r.misses))
	if want == 0 {
		want = 1
	}
	var cum uint64
	for c, n := range r.missLat {
		cum += n
		if cum >= want {
			return uint64(c)
		}
	}
	return uint64(len(r.missLat) - 1)
}

// IPA returns instructions per cycle-ish throughput (instructions over
// machine cycles), the basis of Figure 7's speedups.
func (r Report) IPA() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// LateHitRatioI returns late hits per L1-I access.
func (r Report) LateHitRatioI() float64 {
	if r.FetchAccesses == 0 {
		return 0
	}
	return float64(r.LateHitsI) / float64(r.FetchAccesses)
}

// LateHitRatioD returns late hits per L1-D access.
func (r Report) LateHitRatioD() float64 {
	d := r.Accesses - r.FetchAccesses
	if d == 0 {
		return 0
	}
	return float64(r.LateHitsD) / float64(d)
}

// Engine runs streams against a machine. Each block of a run phase goes
// through two stages: the machine stage steps it through the hierarchy
// (AccessBlock, writing each access's outcome next to it), and the
// timing stage applies the overlap model to those outcomes in order.
// Warmup runs the machine stage alone.
type Engine struct {
	m    BlockMachine
	t    timing // the timing stage: clocks, in-flight tables, report
	feed feed   // block delivery: the slab ring and its helper

	// Epoch hook state (EpochMachine): epoch is nil for plain machines;
	// epochLen caches EpochLen() for the current phase and sinceTick
	// counts accesses since the last tick.
	epoch     EpochMachine
	epochLen  int
	sinceTick int
}

// BlockAccesses is the engine's delivery granularity: the feed draws
// the stream up to this many accesses per Fill (Next-only sources are
// buffered through trace.FillFrom) into one of its ring slabs, the
// machine stage steps each delivered block in one AccessBlock call and
// the timing stage consumes its outcomes in one loop. Context
// cancellation, epoch ticks and lane-group captures happen at block
// boundaries, so delivered blocks are clipped to those; the block is
// small enough that cancellation stays responsive and that the ring
// stays L2-resident.
const BlockAccesses = 1024

// NewEngine returns an engine for a machine with the given node count.
// All hot-path state (clocks, the per-node in-flight tables and the
// feed's slab ring) is allocated here once and reused across Run
// calls.
func NewEngine(m Machine, nodes int) *Engine {
	e := &Engine{t: newTiming(nodes), feed: newFeed()}
	if bm, ok := m.(BlockMachine); ok {
		e.m = bm
	} else {
		e.m = perAccess{m}
	}
	if em, ok := m.(EpochMachine); ok {
		e.epoch = em
	}
	return e
}

// Run executes warmup accesses (untimed, hierarchy state updates), then
// measures the next measure accesses and returns the report. The source
// is any access stream — typically a trace.Interleaver over workload
// generators, or a trace.Reader replaying a recorded run.
func (e *Engine) Run(iv trace.Stream, warmup, measure int) Report {
	rep, _ := e.RunContext(context.Background(), iv, warmup, measure)
	return rep
}

// RunContext is Run with cooperative cancellation: the run loop polls
// ctx at every block boundary (at most BlockAccesses apart, in warmup
// and measurement alike) and abandons the simulation with ctx.Err()
// once the context is done, so a killed job stops burning CPU mid-run.
// The partial report is discarded — a cancelled run returns a zero
// Report.
func (e *Engine) RunContext(ctx context.Context, iv trace.Stream, warmup, measure int) (Report, error) {
	if err := e.Warmup(ctx, iv, warmup); err != nil {
		return Report{}, err
	}
	return e.Measure(ctx, iv, measure)
}

// Warmup drives warmup accesses through the machine untimed, updating
// hierarchy state only. It is the first half of RunContext, split out
// so the warm-state snapshot layer can capture the machine at the
// warmup/measurement boundary (after Warmup, before Measure). The feed
// draws exactly warmup accesses and is joined before Warmup returns, so
// the stream a snapshot clones sits exactly at the boundary.
func (e *Engine) Warmup(ctx context.Context, iv trace.Stream, warmup int) error {
	e.beginEpochPhase()
	e.feed.start(iv, warmup, nil)
	defer e.feed.finish()
	for done := 0; done < warmup; {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		done += e.step(warmup - done)
	}
	return nil
}

// step takes the next block of at most want accesses from the feed,
// clipped to the epoch boundary, runs it through the machine stage and
// hands its outcomes to the timing stage (if the phase is timed), then
// accounts it against the epoch phase. It returns the block's length.
func (e *Engine) step(want int) int {
	s := e.feed.take(e.clampEpoch(want))
	e.m.AccessBlock(s.acc, s.lat, s.hit)
	e.feed.stepped(s)
	e.advanceEpoch(len(s.acc))
	return len(s.acc)
}

// beginEpochPhase re-reads the machine's epoch length and aligns the
// epoch phase to the start of a run phase (Warmup, Measure,
// MeasureLanes). Re-aligning at Measure is what makes a
// snapshot-restored run tick at the same in-window positions as a fresh
// one.
func (e *Engine) beginEpochPhase() {
	e.epochLen, e.sinceTick = 0, 0
	if e.epoch != nil {
		e.epochLen = e.epoch.EpochLen()
	}
}

// clampEpoch clips a block request so no delivered block straddles an
// epoch boundary.
func (e *Engine) clampEpoch(want int) int {
	if e.epochLen > 0 && want > e.epochLen-e.sinceTick {
		want = e.epochLen - e.sinceTick
	}
	return want
}

// advanceEpoch accounts n stepped accesses against the epoch phase,
// firing the tick at the boundary. clampEpoch guarantees the boundary
// is never overshot.
func (e *Engine) advanceEpoch(n int) {
	if e.epochLen <= 0 {
		return
	}
	e.sinceTick += n
	if e.sinceTick >= e.epochLen {
		e.epoch.EpochTick()
		e.sinceTick = 0
	}
}

// beginMeasure performs the warmup-boundary reset shared by Measure and
// MeasureLanes: machine statistics, epoch phase and timing state.
func (e *Engine) beginMeasure() {
	e.m.ResetMeasurement()
	e.beginEpochPhase()
	e.t.reset()
}

// Measure resets statistics (ResetMeasurement, the warmup boundary) and
// the engine's timing state, then runs the measurement window and
// returns the report. Calling Warmup then Measure is exactly
// RunContext; calling Measure directly on a snapshot-restored machine
// produces byte-identical reports, because both paths perform the same
// reset at the same boundary.
func (e *Engine) Measure(ctx context.Context, iv trace.Stream, measure int) (Report, error) {
	e.beginMeasure()
	// The step sequence — and therefore the Report — is independent of
	// how the blocks were drawn and of where the timing stage ran; sync
	// waits for it before the report is read.
	e.feed.start(iv, measure, &e.t)
	defer e.feed.finish()
	for done := 0; done < measure; {
		if ctx.Err() != nil {
			return Report{}, ctx.Err()
		}
		done += e.step(measure - done)
	}
	e.feed.sync()
	return e.t.result(), nil
}
