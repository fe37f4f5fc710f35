package d2m

// Warm-state snapshot exactness: restoring a snapshot must be
// indistinguishable from simulating the warmup, for every kind and for
// both workload families (calibrated benchmarks, whose streams are
// cloned into the snapshot, and algorithmic kernels, whose streams are
// replayed). "Indistinguishable" is tested at the strongest level
// available — the marshalled Result bytes.

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// mapWarmCache is the trivial WarmCache used by tests: an unbounded
// map with hit/miss counters.
type mapWarmCache struct {
	mu     sync.Mutex
	m      map[string]*WarmSnapshot
	hits   int
	misses int
}

func newMapWarmCache() *mapWarmCache {
	return &mapWarmCache{m: map[string]*WarmSnapshot{}}
}

func (c *mapWarmCache) GetWarm(key string) *WarmSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.m[key]
	if ws == nil {
		c.misses++
	} else {
		c.hits++
	}
	return ws
}

func (c *mapWarmCache) PutWarm(snap *WarmSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[snap.Key()] = snap
}

// allKinds is the full registered kind set: every differential and
// exactness matrix in the test suite iterates this, so a kind
// registered without joining these matrices fails the registry-coverage
// test rather than silently skipping verification.
func allKinds() []Kind { return AllKinds() }

// runOne / runOneWarm / replicateN adapt the Run entry point to the
// (kind, bench, opt) shape these tests predate; the deprecated
// RunContext-family wrappers they used were removed in v1.4.
func runOne(ctx context.Context, kind Kind, bench string, opt Options) (Result, error) {
	out, err := Run(ctx, RunSpec{Kind: kind, Benchmark: bench, Options: opt})
	return out.Result, err
}

func runOneWarm(ctx context.Context, kind Kind, bench string, opt Options, wc WarmCache) (Result, error) {
	out, err := Run(ctx, RunSpec{Kind: kind, Benchmark: bench, Options: opt, Warm: wc})
	return out.Result, err
}

func replicateN(ctx context.Context, kind Kind, bench string, opt Options, n int, wc WarmCache) (Replicated, error) {
	out, err := Run(ctx, RunSpec{Kind: kind, Benchmark: bench, Options: opt, Replicates: n, Warm: wc})
	if err != nil {
		return Replicated{}, err
	}
	return *out.Replicated, nil
}

// TestSnapshotExactnessMatrix runs every kind on a calibrated
// benchmark and on an algorithmic kernel, three ways: fresh (no warm
// cache), cold-through-cache (miss, deposits the snapshot), and
// restored (hit). All three must produce byte-identical Results.
func TestSnapshotExactnessMatrix(t *testing.T) {
	ctx := context.Background()
	opt := Options{Nodes: 2, Warmup: 3000, Measure: 6000, Seed: 7}

	for _, kind := range allKinds() {
		kind := kind
		t.Run(kind.String()+"/tpc-c", func(t *testing.T) {
			t.Parallel()
			fresh, err := runOne(ctx, kind, "tpc-c", opt)
			if err != nil {
				t.Fatal(err)
			}
			wc := newMapWarmCache()
			first, err := runOneWarm(ctx, kind, "tpc-c", opt, wc)
			if err != nil {
				t.Fatal(err)
			}
			second, err := runOneWarm(ctx, kind, "tpc-c", opt, wc)
			if err != nil {
				t.Fatal(err)
			}
			if wc.hits != 1 || wc.misses != 1 {
				t.Fatalf("warm cache saw %d hits / %d misses, want 1 / 1", wc.hits, wc.misses)
			}
			assertSameResult(t, "cold-through-cache", fresh, first)
			assertSameResult(t, "snapshot-restored", fresh, second)
		})
		t.Run(kind.String()+"/matmul", func(t *testing.T) {
			t.Parallel()
			kopt := Options{Nodes: 2, Warmup: 3000, Measure: 6000}
			fresh, err := RunKernel(kind, "matmul", kopt)
			if err != nil {
				t.Fatal(err)
			}
			wc := newMapWarmCache()
			first, err := RunKernelContextWarm(ctx, kind, "matmul", kopt, wc)
			if err != nil {
				t.Fatal(err)
			}
			second, err := RunKernelContextWarm(ctx, kind, "matmul", kopt, wc)
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

func assertSameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if string(wj) != string(gj) {
		t.Errorf("%s result differs from fresh run:\n fresh    %s\n restored %s", label, wj, gj)
	}
}

// TestSnapshotSharedAcrossMeasureParams checks the warm key excludes
// measurement-side parameters: runs differing only in Measure and
// LinkBandwidth share one snapshot, and each restored run still
// byte-matches its own fresh equivalent.
func TestSnapshotSharedAcrossMeasureParams(t *testing.T) {
	ctx := context.Background()
	wc := newMapWarmCache()
	base := Options{Nodes: 2, Warmup: 4000, Measure: 4000}

	variants := []Options{
		base,
		{Nodes: 2, Warmup: 4000, Measure: 8000},
		{Nodes: 2, Warmup: 4000, Measure: 4000, LinkBandwidth: 0.05},
	}
	for i, opt := range variants {
		fresh, err := runOne(ctx, D2MNSR, "tpc-c", opt)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := runOneWarm(ctx, D2MNSR, "tpc-c", opt, wc)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "variant", fresh, warm)
		if i == 0 && wc.misses != 1 {
			t.Fatalf("first run: %d misses, want 1", wc.misses)
		}
	}
	if wc.hits != len(variants)-1 || wc.misses != 1 {
		t.Errorf("cache saw %d hits / %d misses, want %d / 1 (variants must share one warmup)",
			wc.hits, wc.misses, len(variants)-1)
	}
}

// TestSnapshotSizeEightNodes bounds the host memory a warmed 8-node
// D2M-NS-R snapshot holds. Location Information, data-store slots and
// region entries are stored at their hardware widths, which brings this
// snapshot from 11.1 MiB to 6.55 MiB on a 64-bit host; the bound catches
// a field addition that widens them again. The restored run must still
// byte-match a fresh one.
func TestSnapshotSizeEightNodes(t *testing.T) {
	ctx := context.Background()
	opt := Options{Nodes: 8, Warmup: 20000, Measure: 5000, Seed: 5}
	fresh, err := runOne(ctx, D2MNSR, "tpc-c", opt)
	if err != nil {
		t.Fatal(err)
	}
	wc := newMapWarmCache()
	for i := 0; i < 2; i++ {
		warm, err := runOneWarm(ctx, D2MNSR, "tpc-c", opt, wc)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "warm", fresh, warm)
	}
	if wc.hits != 1 || len(wc.m) != 1 {
		t.Fatalf("warm cache saw %d hits over %d snapshots, want 1 over 1", wc.hits, len(wc.m))
	}
	const limit = 7.5 * (1 << 20)
	for _, snap := range wc.m {
		t.Logf("8-node D2M-NS-R snapshot: %.2f MiB", float64(snap.SizeBytes())/(1<<20))
		if got := snap.SizeBytes(); got > limit {
			t.Errorf("8-node D2M-NS-R snapshot holds %.2f MiB, want <= %.1f MiB", float64(got)/(1<<20), limit/(1<<20))
		}
	}
}

// TestReplicateWarmDeterministic checks a warm-cached replicated run
// equals the plain one byte-for-byte — on a cold cache (populating)
// and again on the warm cache (every seed restored).
func TestReplicateWarmDeterministic(t *testing.T) {
	ctx := context.Background()
	opt := Options{Nodes: 2, Warmup: 2000, Measure: 4000}
	const n = 4

	plain, err := replicateN(ctx, D2MNSR, "tpc-c", opt, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	wc := newMapWarmCache()
	for round := 0; round < 2; round++ {
		warm, err := replicateN(ctx, D2MNSR, "tpc-c", opt, n, wc)
		if err != nil {
			t.Fatal(err)
		}
		pj, _ := json.Marshal(plain)
		wj, _ := json.Marshal(warm)
		if string(pj) != string(wj) {
			t.Errorf("round %d: warm replicate differs:\n plain %s\n warm  %s", round, pj, wj)
		}
	}
	if wc.misses != n || wc.hits != n {
		t.Errorf("cache saw %d hits / %d misses, want %d / %d (each seed warms once)",
			wc.hits, wc.misses, n, n)
	}
}
