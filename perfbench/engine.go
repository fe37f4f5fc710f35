package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"d2m"
	"d2m/internal/core"
	"d2m/internal/mem"
	"d2m/internal/sim"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

// benchSubset is one benchmark per suite, small to large footprint.
var benchSubset = []string{"blackscholes", "fft", "wikipedia", "mix1", "tpc-c"}

// engine_cold runs at the paper's window: 8 nodes, 100k warmup and
// 400k measured accesses, with no warm-state cache.
const (
	engineNodes   = 8
	engineWarmup  = 100_000
	engineMeasure = 400_000
	// engineCheckOps is how many results the output check recomputes.
	engineCheckOps = 4
)

// engineSpec is one engine_cold operation.
type engineSpec struct {
	kind  d2m.Kind
	bench string
	seed  uint64
}

func (s engineSpec) runSpec() d2m.RunSpec {
	return d2m.RunSpec{Kind: s.kind, Benchmark: s.bench,
		Options: d2m.Options{Nodes: engineNodes, Warmup: engineWarmup, Measure: engineMeasure, Seed: s.seed}}
}

// engineRound returns round r of the grid (every registered kind ×
// benchSubset) in a seeded order, each operation with a fresh seed.
func engineRound(seed uint64, r int) []engineSpec {
	var grid []engineSpec
	for _, k := range d2m.AllKinds() {
		for _, b := range benchSubset {
			grid = append(grid, engineSpec{kind: k, bench: b})
		}
	}
	rng := rand.New(rand.NewPCG(seed, uint64(r)+1))
	rng.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	for i := range grid {
		grid[i].seed = rng.Uint64() | 1
	}
	return grid
}

// engineOp is one completed engine_cold operation.
type engineOp struct {
	spec   engineSpec
	start  time.Time
	lat    time.Duration
	result []byte // Result JSON
	err    error
	traced bool
}

// runEngineCold drives d2m.Run in a closed loop from one goroutine.
// Whole grid rounds run until the window has passed, so every run
// covers the same mix.
func runEngineCold(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		if i == 0 {
			t = cfg.start
		}
		if err := engineSetup(ctx); err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(t))
	}

	untraced := cfg.seconds
	if cfg.trace {
		untraced = cfg.seconds / 2
	}
	var ops []engineOp
	round := 0
	t0 := time.Now()
	for len(ops) < minOps || time.Since(t0) < untraced {
		for _, s := range engineRound(cfg.seed, round) {
			ops = append(ops, engineRunOp(ctx, s, nil, 0))
		}
		round++
	}
	rep.window = time.Since(t0)
	rssMiB, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.rssMiB = rssMiB

	if cfg.trace {
		tr := newTracer()
		var runT, explainT time.Duration
		var traced []time.Duration
		t1 := time.Now()
		for n := 0; n == 0 || time.Since(t1) < cfg.seconds-untraced; n++ {
			for _, s := range engineRound(cfg.seed, round) {
				op := engineRunOp(ctx, s, tr, len(ops))
				if op.err == nil {
					replay, err := engineReplay(ctx, tr, len(ops), s, op.result)
					if err != nil {
						return nil, err
					}
					runT += op.lat
					explainT += replay
				}
				traced = append(traced, op.lat)
				ops = append(ops, op)
			}
			round++
		}
		rep.tracer = tr
		rep.layer("d2m.run_self_ms", msOf(runT-explainT)/float64(len(traced)), "ms")
		rep.layer("bench.trace_coverage_frac", float64(explainT)/float64(runT), "fraction")
		var plain []time.Duration
		for _, op := range ops {
			if !op.traced {
				plain = append(plain, op.lat)
			}
		}
		rep.layer("bench.trace_overhead_frac", median(ms(traced))/median(ms(plain))-1, "fraction")
	}

	var starts, ends []time.Time
	for i, op := range ops {
		rep.tally.attempt()
		if op.err != nil {
			rep.tally.fail(i, op.err.Error())
		}
		if op.traced {
			continue
		}
		starts, ends = append(starts, op.start), append(ends, op.start.Add(op.lat))
		if op.err == nil {
			rep.lat = append(rep.lat, op.lat)
			rep.simAcc += engineWarmup + engineMeasure
		}
	}
	if cfg.trace {
		rep.layer("bench.gen_lag_ms_p99", closedLoopLag(starts, ends), "ms")
	}
	nGrid := len(engineRound(cfg.seed, 0))
	digestOps := make([][]byte, 0, nGrid)
	for _, op := range ops[:nGrid] {
		digestOps = append(digestOps, op.result)
	}
	rep.digest = simDigest(digestOps)

	// Output check: recompute a seeded sample in process after the
	// timed window and compare the Result JSON byte for byte.
	rng := rand.New(rand.NewPCG(cfg.seed, 0xc4ec))
	for n := 0; n < engineCheckOps; n++ {
		i := rng.IntN(len(ops))
		if ops[i].err != nil {
			continue
		}
		want, err := runJSON(ctx, ops[i].spec.runSpec())
		if err != nil || string(want) != string(ops[i].result) {
			rep.tally.fail(i, fmt.Sprintf("output check: %v/%s seed %d differs on recompute (err %v)",
				ops[i].spec.kind, ops[i].spec.bench, ops[i].spec.seed, err))
		}
		rep.checked++
	}
	return rep, nil
}

// engineSetup warms the hierarchy pools with one short run per kind.
func engineSetup(ctx context.Context) error {
	for _, k := range d2m.AllKinds() {
		_, err := d2m.Run(ctx, d2m.RunSpec{Kind: k, Benchmark: "tpc-c",
			Options: d2m.Options{Nodes: engineNodes, Warmup: 2000, Measure: 2000, Seed: 3}})
		if err != nil {
			return fmt.Errorf("engine setup: %w", err)
		}
	}
	return nil
}

// engineRunOp times one d2m.Run call. With a tracer the call is one
// root span.
func engineRunOp(ctx context.Context, s engineSpec, tr *tracer, opID int) engineOp {
	id := tr.begin("d2m.run", opID, 0)
	t := time.Now()
	out, err := d2m.Run(ctx, s.runSpec())
	lat := time.Since(t)
	tr.end(id)
	op := engineOp{spec: s, start: t, lat: lat, err: err, traced: tr != nil}
	if err == nil {
		op.result, op.err = json.Marshal(out.Result)
	}
	return op
}

// runJSON runs spec in process and returns its Result JSON.
func runJSON(ctx context.Context, spec d2m.RunSpec) ([]byte, error) {
	out, err := d2m.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(out.Result)
}

// newStream builds the access stream d2m.Run feeds for a catalogue
// benchmark: the spec's per-node generators, reseeded the way Run
// reseeds them, behind an interleaver.
func newStream(bench string, nodes int, seed uint64) (*trace.Interleaver, error) {
	sp, ok := workloads.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", bench)
	}
	cp := *sp
	if seed != 0 {
		cp.Seed ^= seed * 0x9e3779b97f4a7c15
	}
	return trace.NewInterleaver(cp.Streams(nodes)), nil
}

// fillAll fills buf from the interleaver a block at a time.
func fillAll(iv *trace.Interleaver, buf []mem.Access) {
	for done := 0; done < len(buf); {
		end := min(done+sim.BlockAccesses, len(buf))
		done += iv.Fill(buf[done:end])
	}
}

// mechOptions is the registry construction d2m.Run uses for the
// benchmark's runs (crossbar, pressure placement, 1x metadata).
func mechOptions(nodes int, seed uint64) core.MechOptions {
	return core.MechOptions{Nodes: nodes, Seed: seed, MDScale: 1}
}

// layerOf names the module a kind's mechanism lives in.
func layerOf(m *core.Mechanism) string {
	if m.Baseline {
		return "baseline"
	}
	return "core"
}

// stepAccesses drives accesses through a mechanism instance exactly as
// the engine does, ticking the epoch hook every EpochLen accesses from
// the start of the phase. When lat and hit are non-nil it records each
// access's outcome.
func stepAccesses(inst core.MechInstance, accs []mem.Access, lat []uint64, hit []bool) {
	ep := epochPhase{inst: inst, len: inst.EpochLen()}
	for i, a := range accs {
		l, h := inst.Access(a)
		if lat != nil {
			lat[i], hit[i] = l, h
		}
		ep.step()
	}
}

// epochPhase counts accesses of one run phase against a mechanism's
// epoch interval, as the engine does for an EpochMachine.
type epochPhase struct {
	inst  core.MechInstance
	len   int
	since int
}

func (e *epochPhase) step() {
	if e.len > 0 {
		if e.since++; e.since == e.len {
			e.inst.EpochTick()
			e.since = 0
		}
	}
}

// replayMachine is a sim.Machine that returns recorded access outcomes
// in order, so the engine runs the timing model alone.
type replayMachine struct {
	lat []uint64
	hit []bool
	i   int
	// reset, when set, runs at the measurement boundary.
	reset func()
}

func (m *replayMachine) Access(mem.Access) (uint64, bool) {
	l, h := m.lat[m.i], m.hit[m.i]
	m.i++
	return l, h
}

func (m *replayMachine) ResetMeasurement() {
	if m.reset != nil {
		m.reset()
	}
}

// sliceStream delivers a pre-generated access slice as a block stream.
type sliceStream struct {
	buf []mem.Access
	pos int
}

func (s *sliceStream) Next() mem.Access {
	a := s.buf[s.pos]
	s.pos++
	return a
}

func (s *sliceStream) Fill(out []mem.Access) int {
	n := copy(out, s.buf[s.pos:])
	s.pos += n
	return n
}

// layeredStream is the block source of a replayed run. Each Fill
// generates the block (a workloads span) and performs its accesses on
// the real mechanism (an access span), recording the outcomes for the
// replay machine the engine steps next. Work stays in the engine's
// block order, so caches behave as in the run being explained.
type layeredStream struct {
	iv     *trace.Interleaver
	inst   core.MechInstance
	ep     epochPhase
	m      *replayMachine
	tr     *tracer
	op     int
	parent int
	access string // span name of the mechanism's access layer
}

func (s *layeredStream) Next() mem.Access { panic("layeredStream: block delivery only") }

func (s *layeredStream) Fill(out []mem.Access) int {
	id := s.tr.begin("workloads.fill", s.op, s.parent)
	n := s.iv.Fill(out)
	s.tr.end(id)
	id = s.tr.begin(s.access, s.op, s.parent)
	for i, a := range out[:n] {
		s.m.lat[i], s.m.hit[i] = s.inst.Access(a)
		s.ep.step()
	}
	s.tr.end(id)
	s.m.i = 0
	return n
}

// engineReplay re-executes one d2m.Run call with each layer called
// directly from here and wrapped in spans: mechanism construction;
// the engine's warmup and measurement over a layeredStream (stream
// generation and mechanism accesses are its child spans, so its self
// time is the engine loop and timing model); and release. It returns
// the replay's wall time, which its layer spans cover but for a few
// small allocations. The replay must reproduce the run's
// simulated cycle count, which shows it did the same work.
func engineReplay(ctx context.Context, tr *tracer, opID int, s engineSpec, resultJSON []byte) (time.Duration, error) {
	m, ok := core.MechanismByOrder(int(s.kind))
	if !ok {
		return 0, fmt.Errorf("replay: kind %v not registered", s.kind)
	}
	layer := layerOf(m)
	root := tr.begin("replay", opID, 0)
	t := time.Now()

	id := tr.begin(layer+".new", opID, root)
	inst := m.New(mechOptions(engineNodes, s.seed))
	tr.end(id)

	id = tr.begin("workloads.fill", opID, root)
	iv, err := newStream(s.bench, engineNodes, s.seed)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	rm := &replayMachine{lat: make([]uint64, sim.BlockAccesses), hit: make([]bool, sim.BlockAccesses)}
	step := tr.begin("sim.step", opID, root)
	ls := &layeredStream{iv: iv, inst: inst, ep: epochPhase{inst: inst, len: inst.EpochLen()},
		m: rm, tr: tr, op: opID, parent: step, access: layer + ".access"}
	rm.reset = func() {
		inst.ResetMeasurement()
		ls.ep = epochPhase{inst: inst, len: inst.EpochLen()}
	}
	eng := sim.NewEngine(rm, engineNodes)
	simRep, err := eng.RunContext(ctx, ls, engineWarmup, engineMeasure)
	tr.end(step)
	if err != nil {
		return 0, err
	}

	id = tr.begin(layer+".release", opID, root)
	inst.Release()
	tr.end(id)
	tr.end(root)
	elapsed := time.Since(t)

	var res struct{ Cycles uint64 }
	if err := json.Unmarshal(resultJSON, &res); err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	if res.Cycles != simRep.Cycles {
		return 0, fmt.Errorf("replay of %v/%s seed %d: %d cycles, run reported %d", s.kind, s.bench, s.seed, simRep.Cycles, res.Cycles)
	}
	return elapsed, nil
}
