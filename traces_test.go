package d2m

// Trace-benchmark exactness: a stored trace referenced as "trace:<id>"
// must behave exactly like any catalog benchmark — same Run/RunGroup
// paths, same warm-snapshot byte-identity — and the block-pipelined
// engine must be indistinguishable from scalar Next-draining delivery
// for every kind, topology and source family.

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"d2m/internal/mem"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

// setTraceLib points the process-wide trace library at a fresh temp
// directory for the duration of one test. Trace tests must not run in
// parallel with each other (the library is process-wide).
func setTraceLib(t *testing.T) {
	t.Helper()
	if err := SetTraceDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { SetTraceDir("") })
}

// recordBench returns a v2-encoded trace of a catalog benchmark.
func recordBench(t *testing.T, bench string, nodes, accesses int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := RecordTrace(bench, nodes, accesses, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceBenchmarkRun(t *testing.T) {
	setTraceLib(t)
	ctx := context.Background()
	enc := recordBench(t, "tpc-c", 2, 20_000)
	info, err := ImportTrace(bytes.NewReader(enc), "tpc-c-capture")
	if err != nil {
		t.Fatal(err)
	}
	bench := TracePrefix + info.ID

	if suite, ok := SuiteOf(bench); !ok || suite != SuiteTrace {
		t.Errorf("SuiteOf(%q) = %q, %v", bench, suite, ok)
	}
	if _, ok := SuiteOf(TracePrefix + "0000000000000000"); ok {
		t.Error("SuiteOf of unknown trace id succeeded")
	}

	opt := Options{Nodes: 2, Warmup: 3000, Measure: 6000}
	res, err := runOne(ctx, D2MNSR, bench, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != bench || res.Suite != SuiteTrace {
		t.Errorf("Result labels = %q / %q", res.Benchmark, res.Suite)
	}
	// Replays are deterministic.
	again, err := runOne(ctx, D2MNSR, bench, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "trace replay", res, again)

	// The stored-trace path (chunked FileReader) and the legacy RunTrace
	// path (in-memory Reader) replay the same bytes: identical metrics.
	direct, err := RunTrace(D2MNSR, bytes.NewReader(enc), opt)
	if err != nil {
		t.Fatal(err)
	}
	direct.Benchmark, direct.Suite = res.Benchmark, res.Suite
	assertSameResult(t, "FileReader-vs-Reader", direct, res)

	// A trace wider than the machine is rejected.
	if _, err := runOne(ctx, D2MNSR, bench, Options{Nodes: 1, Warmup: 1000, Measure: 1000}); err == nil {
		t.Error("2-node trace ran on a 1-node machine")
	}
	// Unknown ids are unknown benchmarks.
	if _, err := runOne(ctx, D2MNSR, TracePrefix+"0000000000000000", opt); err == nil {
		t.Error("unknown trace id ran")
	}

	if got := ListTraces(); len(got) != 1 || got[0].ID != info.ID {
		t.Errorf("ListTraces = %+v", got)
	}
	if _, ok := TracePath(info.ID); !ok {
		t.Error("TracePath of stored trace failed")
	}
}

func TestTraceRunWithoutLibrary(t *testing.T) {
	if err := SetTraceDir(""); err != nil {
		t.Fatal(err)
	}
	if _, err := runOne(context.Background(), D2MNSR, TracePrefix+"0000000000000000",
		Options{Nodes: 2, Warmup: 1000, Measure: 1000}); err == nil {
		t.Error("trace benchmark ran without a trace library")
	}
	if _, err := ImportTrace(strings.NewReader("x"), ""); err == nil {
		t.Error("ImportTrace succeeded without a trace library")
	}
	if got := ListTraces(); got != nil {
		t.Errorf("ListTraces without a library = %+v", got)
	}
}

// TestTraceWarmSnapshotExactness is the snapshot matrix for a trace
// benchmark: cold-through-cache and snapshot-restored runs must be
// byte-identical to a fresh run, for every kind — the FileReader clone
// frozen mid-trace must resume exactly.
func TestTraceWarmSnapshotExactness(t *testing.T) {
	setTraceLib(t)
	ctx := context.Background()
	info, err := ImportTrace(bytes.NewReader(recordBench(t, "radix", 2, 15_000)), "")
	if err != nil {
		t.Fatal(err)
	}
	bench := TracePrefix + info.ID
	// Warmup larger than the trace forces a Loop wrap before the
	// snapshot boundary.
	opt := Options{Nodes: 2, Warmup: 20_000, Measure: 8000, Seed: 7}

	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			fresh, err := runOne(ctx, kind, bench, opt)
			if err != nil {
				t.Fatal(err)
			}
			wc := newMapWarmCache()
			first, err := runOneWarm(ctx, kind, bench, opt, wc)
			if err != nil {
				t.Fatal(err)
			}
			second, err := runOneWarm(ctx, kind, bench, opt, wc)
			if err != nil {
				t.Fatal(err)
			}
			if wc.hits != 1 || wc.misses != 1 {
				t.Fatalf("warm cache saw %d hits / %d misses, want 1 / 1", wc.hits, wc.misses)
			}
			assertSameResult(t, "cold-through-cache", fresh, first)
			assertSameResult(t, "snapshot-restored", fresh, second)
		})
	}
}

// TestTraceRunGroup checks trace benchmarks ride the vector engine:
// every lane of a group over a stored trace matches its scalar run.
func TestTraceRunGroup(t *testing.T) {
	setTraceLib(t)
	ctx := context.Background()
	info, err := ImportTrace(bytes.NewReader(recordBench(t, "tpc-c", 2, 12_000)), "")
	if err != nil {
		t.Fatal(err)
	}
	bench := TracePrefix + info.ID
	base := Options{Nodes: 2, Warmup: 2000, Seed: 3}
	assertLanesMatchScalar(t, ctx, groupOf(D2MNSR, bench, base, []int{3000, 5000, 8000}, []float64{0, 0.002, 0}))
}

// nextOnly hides a stream's Fill method and its trace.Detached marker,
// forcing the engine to buffer Next calls inline on the caller's
// goroutine.
type nextOnly struct{ s trace.Stream }

func (n nextOnly) Next() mem.Access { return n.s.Next() }

// TestBlockScalarDifferentialMatrix is the engine's delivery exactness
// guarantee: block delivery (Fill, drawn ahead by the feed's producer)
// and scalar delivery (Next, inline) are indistinguishable in the
// marshalled Result, across kinds, topologies and source families
// (generated benchmarks from different suites, the vector extras, and
// recorded-trace replay).
func TestBlockScalarDifferentialMatrix(t *testing.T) {
	sources := []string{"tpc-c", "radix", "barnes", "vec-stride16"}
	topos := []string{"", "ring", "mesh", "torus"}

	const nodes = 2
	// Recorded once, before the parallel subtests start: they only read it.
	traceEnc := recordBench(t, "tpc-c", nodes, 10_000)
	mkStream := func(t *testing.T, src string, opt Options) trace.Stream {
		if src == "trace" {
			rd, err := trace.ReadTrace(bytes.NewReader(traceEnc))
			if err != nil {
				t.Fatal(err)
			}
			rd.Loop = true
			return rd
		}
		sp, ok := workloads.ByName(src)
		if !ok {
			t.Fatalf("unknown benchmark %s", src)
		}
		return trace.NewInterleaver(specStreams(sp, opt))
	}

	for _, kind := range allKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for i, src := range append(sources, "trace") {
				opt := Options{Nodes: nodes, Warmup: 2000, Measure: 5000, Topology: topos[i%len(topos)]}.withDefaults()
				block := Result{Kind: kind, Benchmark: src}
				block.measure(kind, opt, mkStream(t, src, opt))
				scalar := Result{Kind: kind, Benchmark: src}
				scalar.measure(kind, opt, nextOnly{mkStream(t, src, opt)})
				bj, _ := json.Marshal(block)
				sj, _ := json.Marshal(scalar)
				if string(bj) != string(sj) {
					t.Errorf("%s/%s/topology=%q: block and scalar delivery differ:\n block  %s\n scalar %s",
						kind, src, opt.Topology, bj, sj)
				}
			}
		})
	}
}

// TestVectorSuite covers the strided/vector extras: outside the paper's
// pinned catalog, resolvable by name, and the VectorLines knob is both
// observable and exactly neutral at 0 vs 1.
func TestVectorSuite(t *testing.T) {
	for _, s := range Suites() {
		if s == SuiteVector {
			t.Fatalf("Suites() includes %s; the extras suite must not dilute the paper's five", SuiteVector)
		}
	}
	names := BenchmarksOf(SuiteVector)
	if len(names) == 0 {
		t.Fatal("no Vector extras benchmarks")
	}
	for _, b := range Benchmarks() {
		if strings.HasPrefix(b, "vec-") {
			t.Fatalf("Benchmarks() includes extras entry %s", b)
		}
	}
	ctx := context.Background()
	opt := Options{Nodes: 2, Warmup: 3000, Measure: 6000}
	results := map[string]Result{}
	for _, name := range names {
		if suite, ok := SuiteOf(name); !ok || suite != SuiteVector {
			t.Errorf("SuiteOf(%q) = %q, %v", name, suite, ok)
		}
		res, err := runOne(ctx, D2MNSR, name, opt)
		if err != nil {
			t.Fatal(err)
		}
		results[name] = res
	}
	// Different vector shapes are different workloads.
	if dense, scatter := results["vec-dense"], results["vec-scatter"]; dense.Cycles == scatter.Cycles {
		t.Errorf("vec-dense and vec-scatter produced identical cycle counts (%v)", dense.Cycles)
	}

	// VectorLines 0 and 1 both mean single-line touches: byte-identical.
	w := WorkloadSpec{
		Name: "v", CodeBytes: 64 << 10, HotCodeBytes: 8 << 10,
		HotDataBytes: 32 << 10, PrivateWS: 1 << 20,
		DataFrac: 0.5, StreamFrac: 0.5, StreamBytes: 1 << 20, StrideLines: 4,
	}
	w0, w1 := w, w
	w0.VectorLines = 0
	w1.VectorLines = 1
	r0, err := RunCustom(D2MNSR, w0, opt)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunCustom(D2MNSR, w1, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "VectorLines 0 vs 1", r0, r1)
	// And 8 is a different stream.
	w8 := w
	w8.VectorLines = 8
	r8, err := RunCustom(D2MNSR, w8, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r8.Cycles == r0.Cycles {
		t.Errorf("VectorLines = 8 produced identical cycles to 1 (%v)", r8.Cycles)
	}
}
