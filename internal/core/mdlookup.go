package core

import (
	"fmt"

	"d2m/internal/cache"
	"d2m/internal/energy"
	"d2m/internal/mem"
	"d2m/internal/timing"
)

// txn accumulates the critical-path latency of one access.
type txn struct {
	lat uint64
}

func (t *txn) add(cycles uint64) { t.lat += cycles }

// mdLevel says where an access found its region's active metadata.
type mdLevel uint8

const (
	mdMiss mdLevel = iota
	mdHitMD1
	mdHitMD2
)

// md2Probe finds the node's MD2 entry for region r without charging.
func (n *node) md2Probe(r mem.RegionAddr) (*nodeRegion, int, int, bool) {
	set := n.md2.SetFor(regionKey(r))
	if way, ok := n.md2.Lookup(set, uint64(r)); ok {
		return n.md2Ent[n.md2.Index(set, way)], set, way, true
	}
	return nil, set, -1, false
}

// entry returns the node's metadata entry for region r, or nil. This is
// the simulator's realization of the paper's Tracking Pointer chain: a
// tagged lookup here stands in for a constant-time pointer dereference.
func (n *node) entry(r mem.RegionAddr) *nodeRegion {
	ent, _, _, _ := n.md2Probe(r)
	return ent
}

// md1For returns the MD1 table (and payload) for the given stream.
func (n *node) md1For(instr bool) (*cache.Table, []*nodeRegion) {
	if instr {
		return n.md1i, n.md1iEnt
	}
	return n.md1d, n.md1dEnt
}

// lookupMD walks the node's metadata hierarchy for region r on behalf of
// a kind-typed access, charging latency and energy as it goes. On an MD1
// hit the LI is available after a single pipelined MD1 cycle (no TLB —
// MD1 is virtually tagged). On an MD1 miss the physically tagged MD2 is
// consulted (paying a TLB2 translation) and the entry is promoted into
// the appropriate MD1. It returns nil when the node has no metadata for
// the region (case D).
func (s *System) lookupMD(n *node, instr bool, r mem.RegionAddr, t *txn) (*nodeRegion, mdLevel) {
	if s.cfg.TraditionalL1 {
		return s.lookupMDTraditional(n, instr, r, t)
	}
	md1, pay := n.md1For(instr)
	s.meter.Do(energy.OpMD1, 1)
	t.add(timing.MD1)
	// Last-region memo: consecutive accesses overwhelmingly land in the
	// region the stream touched last, so check the remembered slot
	// before paying the hash + associative probe. The key comparison
	// against the live table makes the memo self-invalidating.
	memo := &n.memoD
	if instr {
		memo = &n.memoI
	}
	if memo.ok && memo.region == r {
		if key, valid := md1.SlotKey(memo.slot); valid && key == uint64(r) {
			md1.TouchSlot(memo.slot)
			s.st.MD1Hits++
			return pay[memo.slot], mdHitMD1
		}
		memo.ok = false
	}
	set := md1.SetFor(regionKey(r))
	if way, ok := md1.Lookup(set, uint64(r)); ok {
		i := md1.Index(set, way)
		md1.TouchSlot(i)
		s.st.MD1Hits++
		*memo = md1Memo{region: r, slot: i, ok: true}
		return pay[i], mdHitMD1
	}

	// MD1 miss: translate (TLB2) and search MD2.
	s.meter.Do(energy.OpTLB2, 1)
	s.meter.Do(energy.OpMD2, 1)
	t.add(timing.TLB2 + timing.MD2)
	ent, md2set, md2way, ok := n.md2Probe(r)
	if !ok {
		return nil, mdMiss
	}
	n.md2.Touch(md2set, md2way)
	// If the entry is active in the other MD1 (the MD2 field that says
	// "MD1-I or MD1-D", footnote 2), that MD1 must be consulted and the
	// entry migrates to the requesting stream's MD1.
	if (ent.active == activeMD1I) != instr && ent.active != activeMD2 {
		s.meter.Do(energy.OpMD1, 1)
		t.add(timing.MD1)
		n.md1Drop(ent)
	}
	n.md1Install(ent, instr)
	s.st.MD2Hits++
	return ent, mdHitMD2
}

// lookupMDTraditional is the §III-A hybrid front-end: the core carries a
// conventional TLB and tagged L1 (charged per access), there is no MD1,
// and the metadata hierarchy is consulted at MD2 on every L1 miss. The
// LI-vs-tag equivalence holds because the L1 contents are exactly the
// lines whose LI says LocL1 (metadata inclusion), so a tag hit and an
// LI hit coincide.
func (s *System) lookupMDTraditional(n *node, instr bool, r mem.RegionAddr, t *txn) (*nodeRegion, mdLevel) {
	// Conventional front-end: TLB + associative tag search on every
	// access, like the baselines (perfect way prediction: one data
	// way). A tag hit never consults the metadata; the MD2 access for
	// misses is charged by the Access path once the LI dispatch shows
	// the line is not L1-resident.
	s.meter.Do(energy.OpTLB, 1)
	s.meter.Do(energy.OpL1Tag, 1)
	ent, md2set, md2way, ok := n.md2Probe(r)
	if !ok {
		t.add(timing.TLB2 + timing.MD2)
		s.meter.Do(energy.OpTLB2, 1)
		s.meter.Do(energy.OpMD2, 1)
		return nil, mdMiss
	}
	n.md2.Touch(md2set, md2way)
	s.st.MD2Hits++
	return ent, mdHitMD2
}

// md1Install promotes ent into the stream-appropriate MD1, spilling the
// MD1 victim's LI back to MD2 (a local flag flip over the shared entry,
// charged as an MD2 write).
func (n *node) md1Install(ent *nodeRegion, instr bool) {
	md1, pay := n.md1For(instr)
	set := md1.SetFor(regionKey(ent.region))
	way := md1.VictimWayIn(set, n.md1ActiveWaysFor(instr))
	if md1.Valid(set, way) {
		victim := pay[md1.Index(set, way)]
		victim.active = activeMD2
		n.sys.meter.Do(energy.OpMD2, 1)
	}
	pay[md1.Index(set, way)] = ent
	md1.Put(set, way, uint64(ent.region))
	if instr {
		ent.active = activeMD1I
	} else {
		ent.active = activeMD1D
	}
	// Seed the stream's memo: the access that triggered this promote is
	// usually the first of a run within the region.
	memo := &n.memoD
	if instr {
		memo = &n.memoI
	}
	*memo = md1Memo{region: ent.region, slot: md1.Index(set, way), ok: true}
}

// md1Drop removes ent from whichever MD1 holds it and marks MD2 active.
func (n *node) md1Drop(ent *nodeRegion) {
	if ent.active == activeMD2 {
		return
	}
	md1, pay := n.md1For(ent.active == activeMD1I)
	set := md1.SetFor(regionKey(ent.region))
	if way, ok := md1.Lookup(set, uint64(ent.region)); ok {
		pay[md1.Index(set, way)] = nil
		md1.Invalidate(set, way)
	}
	ent.active = activeMD2
}

// md2Install places a freshly fetched region entry into the node's MD2
// (and the stream's MD1), evicting — with the full forced-eviction
// cascade — an MD2 victim if the set is full. The replacement policy
// favors regions with few locally present cachelines (§II-A).
func (s *System) md2Install(n *node, ent *nodeRegion, instr bool, t *txn) {
	set := n.md2.SetFor(regionKey(ent.region))
	way := n.md2.VictimWayScored(set, func(w int) int {
		v := n.md2Ent[n.md2.Index(set, w)]
		return -n.localLineCount(v)
	})
	if n.md2.Valid(set, way) {
		s.md2Spill(n, n.md2Ent[n.md2.Index(set, way)], t)
		// md2Spill removed the victim from the table; recompute the slot
		// in case the spill freed a different way (it frees exactly the
		// victim's way, so the lookup below is just a consistency check).
		if n.md2.Valid(set, way) {
			panic("core: MD2 victim way still valid after spill")
		}
	}
	n.md2Ent[n.md2.Index(set, way)] = ent
	n.md2.Put(set, way, uint64(ent.region))
	if !s.cfg.TraditionalL1 {
		n.md1Install(ent, instr)
	}
}

// localLineCount returns how many of the entry's lines are locally
// present (L1/L2 or replicas in the node's own NS slice).
func (n *node) localLineCount(ent *nodeRegion) int {
	count := 0
	for idx := range ent.li {
		li := ent.li[idx]
		if li.Local() {
			count++
			continue
		}
		if li.Kind == LocLLC && n.sys.llcIsLocal(li, n.id) && li.Way != WayUnresolved {
			if sl := n.sys.slices[n.id].at(n.sys.slices[n.id].setFor(ent.region.Line(idx), ent.scramble), int(li.Way)); sl.valid && !sl.master && sl.line == ent.region.Line(idx) {
				count++
			}
		}
	}
	return count
}

// hasLocalCopies reports whether the entry tracks any locally cached
// line (the pruning precondition of §IV-A).
func (n *node) hasLocalCopies(ent *nodeRegion) bool { return n.localLineCount(ent) > 0 }

// md2Remove deletes the entry from the node's MD1/MD2 tables without any
// data movement; callers must have handled the tracked lines.
func (n *node) md2Remove(ent *nodeRegion) {
	n.md1Drop(ent)
	set := n.md2.SetFor(regionKey(ent.region))
	if way, ok := n.md2.Lookup(set, uint64(ent.region)); ok {
		n.md2Ent[n.md2.Index(set, way)] = nil
		n.md2.Invalidate(set, way)
	} else {
		panic(fmt.Sprintf("core: md2Remove: node %d has no entry for %v", n.id, ent.region))
	}
}
