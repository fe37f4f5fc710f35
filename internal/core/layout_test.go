package core

import (
	"strconv"
	"testing"
	"unsafe"
)

// TestHostLayout pins the host-side sizes of the per-line and
// per-region state, so a field added to any of them has to update this
// test on purpose. The widths follow Table I: an LI is 3 bytes, a data
// store slot 24, and a region entry's 16 LIs take 48 bytes.
func TestHostLayout(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skipf("layout pinned on 64-bit hosts, running on %d-bit", strconv.IntSize)
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Location", unsafe.Sizeof(Location{}), 3},
		{"slot", unsafe.Sizeof(slot{}), 24},
		{"nodeRegion", unsafe.Sizeof(nodeRegion{}), 88},
		{"dirRegion", unsafe.Sizeof(dirRegion{}), 72},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestLocationWidthCoversValidate checks that the narrow Location
// fields hold every value a configuration accepted by Validate can
// produce: each node, way and slice at Validate's bounds reads back
// unchanged and round-trips through the 6-bit encoding, and Validate
// still rejects the first node count and LLC way count int8 storage
// would have to cover beyond Table I's widths.
func TestLocationWidthCoversValidate(t *testing.T) {
	check := func(loc Location, node, way int, ns bool) {
		t.Helper()
		if int(loc.Node) != node || int(loc.Way) != way {
			t.Errorf("%v reads back node %d way %d, want node %d way %d", loc, loc.Node, loc.Way, node, way)
		}
		if way == WayUnresolved {
			return // a victim slice with its slot still open: never encoded
		}
		if got := DecodeLI(EncodeLI(loc, ns), ns); got != loc {
			t.Errorf("%v round-trips to %v (ns=%v)", loc, got, ns)
		}
	}
	for n := 0; n < 8; n++ {
		check(InNode(n), n, 0, false)
		for w := 0; w < 4; w++ {
			check(InSlice(n, w), n, w, true)
		}
		check(InSlice(n, WayUnresolved), n, WayUnresolved, true)
	}
	for w := 0; w < 8; w++ {
		check(InL1(w), 0, w, false)
		check(InL2(w), 0, w, false)
	}
	for w := 0; w < 32; w++ {
		check(InLLC(w), 0, w, false)
	}
	check(InLLC(WayUnresolved), 0, WayUnresolved, false)

	cfg := DefaultConfig()
	cfg.Nodes = 9
	if cfg.Validate() == nil {
		t.Error("Validate accepted Nodes: 9")
	}
	cfg = DefaultConfig()
	cfg.LLCWays = 33
	if cfg.Validate() == nil {
		t.Error("Validate accepted LLCWays: 33")
	}
}
