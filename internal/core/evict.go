package core

import (
	"fmt"

	"d2m/internal/energy"
	"d2m/internal/mem"
	"d2m/internal/noc"
	"d2m/internal/timing"
)

// This file implements the Replacement-Pointer-driven eviction machinery
// of §III-B and the forced-eviction cascades that metadata inclusion
// demands (§II-A, §III): evicting an MD2 entry flushes the node's copies
// of the region; evicting an MD3 entry flushes the region everywhere.

// storeForLocal maps a local LI of ent onto the backing data store.
func (n *node) storeForLocal(li Location, ent *nodeRegion) *dataStore {
	switch li.Kind {
	case LocL1:
		if ent.instrStream {
			return n.l1i
		}
		return n.l1d
	case LocL2:
		if n.l2 == nil {
			panic("core: LocL2 LI in a node without an L2")
		}
		return n.l2
	default:
		panic(fmt.Sprintf("core: storeForLocal on %v", li))
	}
}

// localSlot resolves a local LI to its slot, enforcing determinism.
func (n *node) localSlot(ent *nodeRegion, idx int) (*dataStore, int, *slot) {
	li := ent.li[idx]
	st := n.storeForLocal(li, ent)
	line := ent.region.Line(idx)
	set := st.setFor(line, ent.scramble)
	return st, set, st.get(set, int(li.Way), line)
}

// localSlotI is localSlot returning the slot's flat table index instead
// of the set, so hit paths can touch the slot without recomputing the
// set*ways+way product a second time.
func (n *node) localSlotI(ent *nodeRegion, idx int) (*dataStore, int, *slot) {
	li := ent.li[idx]
	st := n.storeForLocal(li, ent)
	line := ent.region.Line(idx)
	set := st.setFor(line, ent.scramble)
	i := st.tbl.Index(set, int(li.Way))
	sl := &st.slots[i]
	if !sl.valid || sl.line != line {
		panic(fmt.Sprintf("core: determinism violation in %s: set %d way %d holds %v (valid=%v), metadata expected %v",
			st.name, set, li.Way, sl.line, sl.valid, line))
	}
	return st, i, sl
}

// evictNodeLine evicts the locally held line idx of ent from node n.
// Replicas are replaced silently (LI := RP, the master location). Masters
// move to the victim location named by their RP (case E for private
// regions; case F — with the metadata-coherent NewMaster update — for
// dirty masters of shared regions).
func (s *System) evictNodeLine(n *node, ent *nodeRegion, idx int, t *txn) {
	li := ent.li[idx]
	if !li.Local() {
		panic(fmt.Sprintf("core: evictNodeLine on non-local LI %v", li))
	}
	st, set, sl := n.localSlot(ent, idx)
	line := ent.region.Line(idx)
	s.meter.Do(st.op, 1)

	if !sl.master {
		// Replica: silent replacement. The RP (master location) is
		// validated first — replicas are clean, so memory is always a
		// coherent fallback if the recorded master moved.
		newLI := s.validateRP(line, ent.scramble, sl.rp)
		if ent.private && newLI.Kind == LocNode {
			// A stale remote referral must not survive into a private
			// region's metadata (privatization sanitizes chains, but a
			// replica RP could have drifted since): memory is coherent,
			// since no other node holds the line.
			newLI = Mem()
		}
		ent.li[idx] = newLI
		st.drop(set, int(li.Way))
		return
	}

	dirty := sl.dirty
	dest := sl.rp
	ver := sl.ver
	st.drop(set, int(li.Way))
	// The line is in transit: its LI must not dangle at the dropped slot
	// while the install cascade below runs — the cascade's victim can be
	// a stale clean duplicate of this very line, whose repoint walk
	// would follow the LI. Memory is the coherent interim location.
	ent.li[idx] = Mem()
	var newLoc Location
	switch dest.Kind {
	case LocLLC:
		newLoc = s.llcInstall(int(dest.Node), line, ent.region, ent.scramble, true, dirty, Mem(), n.id, ver, t)
	case LocMem:
		if dirty {
			s.writebackToMem(noc.NodeEP(n.id), line, ver, t)
		}
		newLoc = Mem()
	default:
		panic(fmt.Sprintf("core: master RP names %v", dest))
	}
	ent.li[idx] = newLoc

	if ent.private {
		s.st.EvE++
		return
	}
	if dirty {
		// Case F: shared dirty master moved; slaves and MD3 must learn
		// the new master location before the old one is reused.
		s.st.EvF++
		s.caseF(n, ent.region, idx, newLoc, t)
	}
	// Clean shared masters move silently; stale NodeID pointers at other
	// nodes are resolved by the redirect path.
}

// writebackToMem accounts a dirty-line writeback to memory from a node
// (fromNode=true) or from the far LLC/memory-side (fromNode=false).
func (s *System) writebackToMem(from noc.Endpoint, line mem.LineAddr, ver uint64, t *txn) {
	t.add(s.fab.SendEP(from, noc.Hub, noc.Data, noc.Base))
	s.meter.Do(energy.OpDRAM, 1)
	s.st.DRAMWrites++
	if s.verMem != nil {
		s.verMem[line] = ver
	}
}

// caseF is the shared-region dirty-master eviction transaction: block the
// region at MD3, send NewMaster to every PB slave, collect acks, update
// the MD3 LI, unblock.
func (s *System) caseF(n *node, r mem.RegionAddr, idx int, newLoc Location, t *txn) {
	s.acquireRegionLock(r)
	t.add(s.sendHub(n.id, noc.Ctrl, noc.D2MOnly)) // EvictReq
	s.meter.Do(energy.OpMD3, 1)
	t.add(timing.MD3)
	s.st.MD3Lookups++
	d := s.md3Probe(r)
	if d == nil {
		panic(fmt.Sprintf("core: caseF: no MD3 entry for %v", r))
	}
	d.li[idx] = newLoc
	old := InNode(n.id)
	for pb := d.pbSnapshot(); pb != 0; pb = pb.drop() {
		m := pb.node()
		if m == n.id {
			continue
		}
		s.fab.SendEP(noc.Hub, noc.NodeEP(m), noc.Ctrl, noc.D2MOnly) // NewMaster
		s.sendNodes(m, n.id, noc.Ctrl, noc.D2MOnly)                 // Ack
		s.meter.Do(energy.OpMD2, 1)
		node := s.nodes[m]
		if ent := node.entry(r); ent != nil {
			s.repointLine(node, ent, idx, old, newLoc)
		}
	}
	t.add(noc.TraversalCycles * 2)         // one NewMaster/Ack round trip overlaps
	s.sendHub(n.id, noc.Ctrl, noc.D2MOnly) // Done/unblock
}

// repointLine updates node m's view of line idx after its master moved
// from old to newLoc: an LI that named the old location is repointed, and
// a local replica whose RP named it has its RP fixed so a later silent
// replacement lands on the new master.
func (s *System) repointLine(m *node, ent *nodeRegion, idx int, old, newLoc Location) {
	if ent.private && newLoc.Kind == LocNode {
		// A private region's metadata must stay self-sufficient: no
		// remote referrals (the named node holds nothing — it is not in
		// the PB set). Memory is coherent for the clean copies that
		// silent replacement moves.
		newLoc = Mem()
	}
	if ent.li[idx] == old {
		ent.li[idx] = newLoc
		return
	}
	if ent.li[idx].Local() {
		_, _, sl := m.localSlot(ent, idx)
		if !sl.master && sl.rp == old {
			sl.rp = newLoc
		}
	}
}

// llcInstall places line into the LLC (slice `slice` for near-side
// configurations; the monolith otherwise), evicting the slot's occupant
// if needed, and returns the concrete location. The data transfer from
// the originating node is charged here.
func (s *System) llcInstall(slice int, line mem.LineAddr, r mem.RegionAddr, scramble uint64, master, dirty bool, rp Location, fromNode int, ver uint64, t *txn) Location {
	st := s.far
	if s.cfg.NearSide {
		st = s.slices[slice]
	}
	set := st.setFor(line, scramble)
	way := st.victimWay(set, func(v *slot) int {
		switch {
		case !v.master:
			return 3 // replicas are cheapest to displace
		case !v.dirty:
			return 2
		default:
			return 0
		}
	})
	if st.at(set, way).valid {
		s.llcEvictSlot(st, slice, set, way, t)
		s.notePressure(slice)
	}
	// Data moves into the LLC slot from the evicting node, or from the
	// memory controller at the hub (fromNode < 0, the bypass fill).
	from := noc.Hub
	if fromNode >= 0 {
		from = noc.NodeEP(fromNode)
	}
	t.add(s.fab.SendEP(from, s.sliceEP(slice), noc.Data, noc.Base))
	s.meter.Do(st.op, 1)
	st.install(set, way, line, master, dirty, false, rp).ver = ver
	if s.cfg.NearSide {
		return InSlice(slice, way)
	}
	return InLLC(way)
}

// llcEvictSlot removes the occupant of an LLC slot. Replicated lines
// (§IV-C) belong to the slice's node: that node's metadata is fixed up
// locally. Master lines fall back to memory, updating MD3 and — for
// tracked regions — every PB node whose LI named the slot ("untracked
// regions can be evicted from LLC to memory without any metadata
// coherence", §IV-A).
func (s *System) llcEvictSlot(st *dataStore, slice int, set, way int, t *txn) {
	sl := st.at(set, way)
	line := sl.line
	r := line.Region()
	idx := line.Index()
	loc := InLLC(way)
	if s.cfg.NearSide {
		loc = InSlice(slice, way)
	}

	if !sl.master {
		// A replica lives only in its owner's slice and is tracked by
		// the owner's MD2 (inclusion, §IV-C).
		owner := s.nodes[slice]
		ent := owner.entry(r)
		if ent == nil {
			panic(fmt.Sprintf("core: orphan replica %v in %s", line, st.name))
		}
		s.meter.Do(energy.OpMD2, 1)
		s.repointLine(owner, ent, idx, loc, s.validateRP(line, ent.scramble, sl.rp))
		st.drop(set, way)
		return
	}

	// Master: new master is memory.
	if sl.dirty {
		s.writebackToMem(s.sliceEP(slice), line, sl.ver, t)
	}
	wasDirty := sl.dirty
	st.drop(set, way)

	d := s.md3Probe(r)
	if d == nil {
		// A clean master can legally be orphaned (duplicate clean
		// forwarders arise from stale-Mem reads; an unreferenced clean
		// copy matches memory and is simply reclaimed). A dirty master
		// must always be tracked.
		if wasDirty {
			panic(fmt.Sprintf("core: dirty LLC master %v with no MD3 entry", line))
		}
		return
	}
	if d.li[idx] == loc {
		d.li[idx] = Mem()
	}
	// The slice tells MD3 (free when co-located, i.e. far-side).
	s.fab.SendEP(s.sliceEP(slice), noc.Hub, noc.Ctrl, noc.D2MOnly)
	for pb := d.pbSnapshot(); pb != 0; pb = pb.drop() {
		mid := pb.node()
		m := s.nodes[mid]
		ent := m.entry(r)
		if ent == nil {
			continue
		}
		// A node can reference the evicted slot directly (LI), through a
		// local replica's RP, or through a two-level chain ending at an
		// own-slice replica's RP; all three must be repointed at memory.
		switch {
		case ent.li[idx] == loc:
			ent.li[idx] = Mem()
			s.fab.SendEP(s.sliceEP(slice), noc.NodeEP(mid), noc.Ctrl, noc.D2MOnly)
			s.meter.Do(energy.OpMD2, 1)
		case ent.li[idx].Local():
			_, _, lsl := m.localSlot(ent, idx)
			if lsl.master {
				break
			}
			if lsl.rp == loc {
				lsl.rp = Mem()
				s.fab.SendEP(s.sliceEP(slice), noc.NodeEP(mid), noc.Ctrl, noc.D2MOnly)
				s.meter.Do(energy.OpMD2, 1)
			} else if rsl := s.ownSliceReplica(mid, ent, idx, lsl.rp); rsl != nil && rsl.rp == loc {
				rsl.rp = Mem()
				s.fab.SendEP(s.sliceEP(slice), noc.NodeEP(mid), noc.Ctrl, noc.D2MOnly)
				s.meter.Do(energy.OpMD2, 1)
			}
		case ent.li[idx].Kind == LocLLC && s.llcIsLocal(ent.li[idx], mid):
			if rsl := s.ownSliceReplica(mid, ent, idx, ent.li[idx]); rsl != nil && rsl.rp == loc {
				rsl.rp = Mem()
				s.fab.SendEP(s.sliceEP(slice), noc.NodeEP(mid), noc.Ctrl, noc.D2MOnly)
				s.meter.Do(energy.OpMD2, 1)
			}
		}
	}
}

// ownSliceReplica resolves loc to node mid's own-slice replica slot for
// line idx of ent, or nil when loc names anything else.
func (s *System) ownSliceReplica(mid int, ent *nodeRegion, idx int, loc Location) *slot {
	if loc.Kind != LocLLC || !s.llcIsLocal(loc, mid) || loc.Way == WayUnresolved {
		return nil
	}
	st := s.slices[mid]
	line := ent.region.Line(idx)
	sl := st.at(st.setFor(line, ent.scramble), int(loc.Way))
	if sl.valid && sl.line == line && !sl.master {
		return sl
	}
	return nil
}

// freeWay makes a way available in the given node-level store set,
// evicting (or demoting, for L1 masters with an L2 below) the occupant.
func (s *System) freeWay(n *node, st *dataStore, set int, t *txn) int {
	way := st.victimWay(set, nil)
	sl := st.at(set, way)
	if !sl.valid {
		return way
	}
	line := sl.line
	r := line.Region()
	idx := line.Index()
	ent := n.entry(r)
	if ent == nil {
		panic(fmt.Sprintf("core: line %v in %s untracked by node %d", line, st.name, n.id))
	}
	if (st == n.l1i || st == n.l1d) && n.l2 != nil && sl.master {
		// Demote the master into the L2 instead of leaving the node
		// ("L1 cachelines may have victim locations allocated for them
		// in L2", §III-B).
		cp := *sl
		l2set := n.l2.setFor(line, ent.scramble)
		l2way := s.freeWay(n, n.l2, l2set, t)
		s.meter.Do(energy.OpL2Data, 1)
		cp.rp = s.validateRP(line, ent.scramble, cp.rp)
		n.l2.install(l2set, l2way, line, cp.master, cp.dirty, cp.excl, cp.rp).ver = cp.ver
		ent.li[idx] = InL2(l2way)
		st.drop(set, way)
		return way
	}
	s.evictNodeLine(n, ent, idx, t)
	return way
}

// md2Spill evicts node n's metadata entry for a region: every locally
// held line is force-evicted first (metadata inclusion), then the entry
// leaves MD1/MD2 and the region's global metadata is updated — possibly
// reclassifying the region as private or untracked (§IV-A).
func (s *System) md2Spill(n *node, ent *nodeRegion, t *txn) {
	r := ent.region
	// 1. Force out every local line and every replica in the own slice.
	// Evicting an L1 replica can expose an own-slice replica behind it
	// (the §IV-C chain), so each line iterates until its LI no longer
	// names anything the dying entry is responsible for.
	for idx := range ent.li {
		for {
			li := ent.li[idx]
			if li.Local() {
				s.evictNodeLine(n, ent, idx, t)
				continue
			}
			if li.Kind == LocLLC && s.llcIsLocal(li, n.id) {
				st := s.slices[n.id]
				line := r.Line(idx)
				set := st.setFor(line, ent.scramble)
				sl := st.get(set, int(li.Way), line)
				if !sl.master {
					// Replicated line: dies with the tracking entry.
					ent.li[idx] = s.validateRP(line, ent.scramble, sl.rp)
					st.drop(set, int(li.Way))
					s.meter.Do(st.op, 1)
					continue
				}
			}
			break
		}
	}
	// 2. Remove the entry.
	n.md2Remove(ent)
	s.st.MD2Spills++

	// 3. Write the region metadata back to MD3.
	s.sendHub(n.id, noc.MD, noc.D2MOnly)
	s.meter.Do(energy.OpMD3, 1)
	d := s.md3Probe(r)
	if d == nil {
		panic(fmt.Sprintf("core: spill of %v with no MD3 entry", r))
	}
	wasPrivate := ent.private
	d.clearPB(n.id)
	if wasPrivate {
		d.li = ent.li
	} else {
		for idx := range d.li {
			if d.li[idx] == InNode(n.id) {
				d.li[idx] = ent.li[idx]
			}
		}
	}
	// A referral to a node outside the PB set is stale (departing nodes
	// externalize every local line, so a non-PB node holds nothing, and
	// a dirty master would have registered its own node in the LI): it
	// must not survive in MD3, where a later untracked->private adoption
	// (D1) would take it at face value. Memory is the coherent fallback.
	for idx := range d.li {
		if li := d.li[idx]; li.Kind == LocNode && !d.hasPB(int(li.Node)) {
			d.li[idx] = Mem()
		}
	}
	// 4. Reclassify.
	if d.class() == Private {
		s.makePrivate(d, s.nodes[d.solePBNode()], t)
	}
}

// makePrivate handles the shared-to-private transition when the presence
// bits collapse to a single node: the survivor's entry absorbs the global
// master locations (so its metadata is self-sufficient), its P bit is
// set, and the MD3 LIs are invalidated (private regions keep no valid
// MD3 LIs).
func (s *System) makePrivate(d *dirRegion, m *node, t *txn) {
	ent := m.entry(d.region)
	if ent == nil {
		panic(fmt.Sprintf("core: makePrivate: node %d lacks entry for %v", m.id, d.region))
	}
	s.fab.SendEP(noc.Hub, noc.NodeEP(m.id), noc.MD, noc.D2MOnly) // NowPrivate with metadata
	s.meter.Do(energy.OpMD2, 1)
	for idx := range ent.li {
		dli := d.li[idx]
		concrete := dli.Kind == LocMem || (dli.Kind == LocLLC && dli.Way != WayUnresolved)
		// A remote NodeID anywhere in the owner's chain is dead after
		// privatization (the named node left the PB set, so it holds no
		// copies): re-chain to MD3's concrete knowledge, or to memory —
		// coherent because a clean replica implies no dirty master
		// outside the sole surviving node.
		fallback := Mem()
		if concrete {
			fallback = dli
		}
		switch {
		case concrete && (ent.li[idx].Kind == LocMem || ent.li[idx].Kind == LocNode):
			ent.li[idx] = dli
		case ent.li[idx].Local():
			_, _, sl := m.localSlot(ent, idx)
			if !sl.master {
				// The replica must chain to the true master: after the
				// MD3 LIs are invalidated, the owner's metadata is the
				// only reference that can keep an LLC master reachable.
				// A concrete LLC RP (direct or via an own-slice
				// replica) is already a valid chain and stays — but a
				// NodeID link anywhere in the chain must be replaced.
				switch {
				case sl.rp.Kind == LocNode || (concrete && sl.rp.Kind == LocMem):
					sl.rp = fallback
				default:
					if rsl := s.ownSliceReplica(m.id, ent, idx, sl.rp); rsl != nil && rsl.rp.Kind == LocNode {
						rsl.rp = fallback
					}
				}
			} else if concrete && dli.Kind == LocLLC {
				// The owner holds a (clean-duplicate) master locally;
				// the LLC copy would become unreachable — reclaim it.
				line := d.region.Line(idx)
				lst := s.llcStore(dli)
				lset := lst.setFor(line, d.scramble)
				if lsl := lst.at(lset, int(dli.Way)); lsl.valid && lsl.line == line {
					s.llcEvictSlot(lst, int(dli.Node), lset, int(dli.Way), t)
				}
			}
		case ent.li[idx].Kind == LocNode:
			// A remaining NodeID pointer names a node with no copies
			// (a node holding one would still be in the PB set), so
			// memory has valid data; private regions must be locally
			// deterministic, with no remote pointers.
			ent.li[idx] = Mem()
		case ent.li[idx].Kind == LocLLC && ent.li[idx].Way != WayUnresolved:
			// A concrete LLC referral can hide a NodeID one hop away: a
			// replica (own-slice or remote) whose RP names a dead node.
			// The pointer itself stays (deterministic), but that RP must
			// be re-chained before a silent replacement copies it back
			// into this now-private region's LI.
			line := d.region.Line(idx)
			lst := s.llcStore(ent.li[idx])
			lset := lst.setFor(line, d.scramble)
			if lsl := lst.at(lset, int(ent.li[idx].Way)); lsl.valid && lsl.line == line && !lsl.master && lsl.rp.Kind == LocNode {
				lsl.rp = fallback
			}
		}
		d.li[idx] = Invalid()
	}
	ent.private = true
}

// md3EvictEntry flushes a region from the entire machine: every tracking
// node drops its entry and copies, every LLC line of the region is
// written back, and the MD3 slot is freed.
func (s *System) md3EvictEntry(set, way int, t *txn) {
	d := s.md3Ent[s.md3.Index(set, way)]
	r := d.region
	s.st.MD3Evicts++

	type llcRef struct {
		st   *dataStore
		set  int
		way  int
		line mem.LineAddr
	}
	refs := make([]llcRef, 0, 64)
	note := func(li Location, line mem.LineAddr, scramble uint64) {
		if li.Kind != LocLLC || li.Way == WayUnresolved {
			return
		}
		st := s.llcStore(li)
		refs = append(refs, llcRef{st, st.setFor(line, scramble), int(li.Way), line})
	}

	for pb := d.pbSnapshot(); pb != 0; pb = pb.drop() {
		mid := pb.node()
		m := s.nodes[mid]
		ent := m.entry(r)
		if ent == nil {
			panic(fmt.Sprintf("core: PB set for node %d but no MD2 entry (%v)", mid, r))
		}
		s.fab.SendEP(noc.Hub, noc.NodeEP(mid), noc.Ctrl, noc.D2MOnly) // flush request
		s.meter.Do(energy.OpMD2, 1)
		for idx := range ent.li {
			li := ent.li[idx]
			line := r.Line(idx)
			switch {
			case li.Local():
				lst, lset, sl := m.localSlot(ent, idx)
				if sl.master && sl.dirty {
					s.writebackToMem(noc.NodeEP(mid), line, sl.ver, t)
				}
				if !sl.master {
					// An LLC master reachable only through this
					// replica's RP must be flushed too.
					note(sl.rp, line, ent.scramble)
				}
				lst.drop(lset, int(li.Way))
				s.meter.Do(lst.op, 1)
			case li.Kind == LocLLC:
				if s.llcIsLocal(li, mid) {
					// May be a replica owned by this node; flush below
					// handles masters, handle the replica here — and
					// chase its RP, which may be the only reference to
					// the true master.
					st := s.slices[mid]
					lset := st.setFor(line, ent.scramble)
					sl := st.at(lset, int(li.Way))
					if sl.valid && sl.line == line && !sl.master {
						note(sl.rp, line, ent.scramble)
						st.drop(lset, int(li.Way))
						s.meter.Do(st.op, 1)
						continue
					}
				}
				note(li, line, ent.scramble)
			}
			ent.li[idx] = Mem()
		}
		m.md2Remove(ent)
	}
	for idx := range d.li {
		note(d.li[idx], r.Line(idx), d.scramble)
	}
	// Indexed loop: dropping a replica appends its RP target (possibly
	// the only reference to a master) to the worklist.
	for i := 0; i < len(refs); i++ {
		ref := refs[i]
		sl := ref.st.at(ref.set, ref.way)
		if !sl.valid || sl.line != ref.line {
			continue
		}
		if !sl.master {
			note(sl.rp, ref.line, d.scramble)
		} else if sl.dirty {
			s.writebackToMem(s.refEP(ref.st), ref.line, sl.ver, t)
		}
		ref.st.drop(ref.set, ref.way)
		s.meter.Do(ref.st.op, 1)
	}
	s.md3Ent[s.md3.Index(set, way)] = nil
	s.md3.Invalidate(set, way)
}
