package d2m

import (
	"encoding/json"
	"reflect"
	"testing"

	"d2m/internal/core"
	"d2m/internal/mem"
	"d2m/internal/sim"
	"d2m/internal/trace"
	"d2m/internal/workloads"
)

// TestAccessBlockDifferential pins every registered mechanism's
// AccessBlock — the engine's machine stage — to its per-access Access.
// Two twin instances step the same 50k-access stream at 8 nodes: one an
// access at a time, the other in engine-sized blocks clipped at epoch
// boundaries, with EpochTick between blocks (and, for the per-access
// twin, after the same access). The outcomes, the marshalled Result and
// the warm-state snapshot must all be identical.
func TestAccessBlockDifferential(t *testing.T) {
	const nodes, n = 8, 50_000
	opt := Options{Nodes: nodes, Seed: 11}.withDefaults()
	for _, bench := range []string{"tpc-c", "mix1"} {
		sp, ok := workloads.ByName(bench)
		if !ok {
			t.Fatalf("%s not in the catalogue", bench)
		}
		stream := make([]mem.Access, n)
		trace.FillFrom(trace.NewInterleaver(specStreams(sp, opt)), stream)
		for _, mech := range core.Mechanisms() {
			mech := mech
			t.Run(mech.Name+"/"+bench, func(t *testing.T) {
				t.Parallel()
				one, block := mech.New(mechOptions(opt)), mech.New(mechOptions(opt))
				defer one.Release()
				defer block.Release()
				epoch := one.EpochLen()

				latA, hitA := make([]uint64, n), make([]bool, n)
				since := 0
				for i, a := range stream {
					latA[i], hitA[i] = one.Access(a)
					if since++; since == epoch {
						one.EpochTick()
						since = 0
					}
				}

				latB, hitB := make([]uint64, n), make([]bool, n)
				since = 0
				for i := 0; i < n; {
					k := min(sim.BlockAccesses, n-i)
					if epoch > 0 {
						k = min(k, epoch-since)
					}
					block.AccessBlock(stream[i:i+k], latB[i:i+k], hitB[i:i+k])
					i += k
					if since += k; since == epoch {
						block.EpochTick()
						since = 0
					}
				}

				for i := range stream {
					if latA[i] != latB[i] || hitA[i] != hitB[i] {
						t.Fatalf("access %d: Access gave (%d, %v), AccessBlock (%d, %v)", i, latA[i], hitA[i], latB[i], hitB[i])
					}
				}
				if a, b := resultJSON(t, one, mech), resultJSON(t, block, mech); a != b {
					t.Errorf("results differ:\n Access      %s\n AccessBlock %s", a, b)
				}
				if !reflect.DeepEqual(one.Snapshot(), block.Snapshot()) {
					t.Error("warm-state snapshots differ")
				}
			})
		}
	}
}

// resultJSON marshals the Result an instance's statistics yield under a
// fixed report.
func resultJSON(t *testing.T, inst core.MechInstance, mech *core.Mechanism) string {
	t.Helper()
	rep := sim.Report{Cycles: 1 << 20, NodeCycles: make([]uint64, 8), Instructions: 1 << 18, Accesses: 50_000}
	var r Result
	r.fillCommon(rep)
	if _, err := r.fillFromInstance(inst, rep, mech); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
