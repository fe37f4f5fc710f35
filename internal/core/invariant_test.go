package core

import (
	"strings"
	"testing"

	"d2m/internal/mem"
)

// The invariant auditor is the foundation the random test suite stands
// on; these meta-tests corrupt a healthy machine in controlled ways and
// verify the auditor flags each class of violation. An auditor that
// silently accepts corruption would make every green test meaningless.

// healthySystem builds a small machine with a spread of state: private
// and shared regions, L1/L2/LLC residency, replicas and masters.
func healthySystem(t *testing.T, nearSide bool) *System {
	t.Helper()
	cfg := testConfig(nearSide)
	cfg.L2Sets, cfg.L2Ways = 8, 2
	s := NewSystem(cfg)
	rng := mem.NewRNG(77)
	for i := 0; i < 5000; i++ {
		kind := mem.Load
		if rng.Bool(0.3) {
			kind = mem.Store
		}
		s.Access(mem.Access{Node: rng.Intn(cfg.Nodes), Addr: addrOf(rng.Intn(24), rng.Intn(16)), Kind: kind})
	}
	mustCheck(t, s)
	return s
}

// corrupt applies fn to the system and expects the auditor to complain
// with a message containing want.
func corrupt(t *testing.T, s *System, want string, fn func() bool) {
	t.Helper()
	if !fn() {
		t.Skip("no state of the required shape to corrupt")
	}
	err := s.CheckInvariants()
	if err == nil {
		t.Fatalf("auditor accepted corruption (wanted %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("auditor said %q, wanted it to mention %q", err, want)
	}
}

func TestAuditorDetectsBrokenLI(t *testing.T) {
	s := healthySystem(t, false)
	corrupt(t, s, "determinism", func() bool {
		for _, n := range s.nodes {
			var done bool
			n.md2.ForEach(func(set, way int, key uint64) {
				if done {
					return
				}
				ent := n.md2Ent[n.md2.Index(set, way)]
				for idx := range ent.li {
					if ent.li[idx].Kind == LocL1 {
						// Point the LI at a (likely) wrong way.
						ent.li[idx].Way = (ent.li[idx].Way + 1) % int8(s.cfg.L1Ways)
						done = true
						return
					}
				}
			})
			if done {
				return true
			}
		}
		return false
	})
}

func TestAuditorDetectsClearedPB(t *testing.T) {
	s := healthySystem(t, false)
	corrupt(t, s, "PB bit clear", func() bool {
		for _, n := range s.nodes {
			var region mem.RegionAddr
			found := false
			n.md2.ForEach(func(set, way int, key uint64) {
				if !found {
					region = mem.RegionAddr(key)
					found = true
				}
			})
			if found {
				s.md3Probe(region).clearPB(n.id)
				return true
			}
		}
		return false
	})
}

func TestAuditorDetectsWrongPrivateBit(t *testing.T) {
	s := healthySystem(t, false)
	corrupt(t, s, "class", func() bool {
		for _, n := range s.nodes {
			var ent *nodeRegion
			n.md2.ForEach(func(set, way int, key uint64) {
				if ent == nil {
					ent = n.md2Ent[n.md2.Index(set, way)]
				}
			})
			if ent != nil {
				ent.private = !ent.private
				return true
			}
		}
		return false
	})
}

func TestAuditorDetectsDoubleDirty(t *testing.T) {
	s := healthySystem(t, false)
	corrupt(t, s, "dirty", func() bool {
		// Make a replica dirty: two dirty copies (or dirty non-master).
		for _, n := range s.nodes {
			found := false
			n.l1d.forEach(func(set, way int, sl *slot) {
				if !found && !sl.master {
					sl.dirty = true
					found = true
				}
			})
			if found {
				return true
			}
		}
		return false
	})
}

func TestAuditorDetectsBogusExcl(t *testing.T) {
	s := healthySystem(t, false)
	corrupt(t, s, "excl", func() bool {
		// Mark a replicated line's copy exclusive.
		for _, n := range s.nodes {
			found := false
			n.l1d.forEach(func(set, way int, sl *slot) {
				if found || sl.excl {
					return
				}
				// Only lines with >1 copies trip the excl audit; a
				// replica implies a master elsewhere.
				if !sl.master {
					sl.excl = true
					found = true
				}
			})
			if found {
				return true
			}
		}
		return false
	})
}

func TestAuditorDetectsOrphanDirtyMaster(t *testing.T) {
	s := healthySystem(t, false)
	corrupt(t, s, "orphan dirty master", func() bool {
		// Take a clean LLC master nothing dirty points at, sever every
		// reference, and dirty it: a lost update.
		var target *slot
		s.far.forEach(func(set, way int, sl *slot) {
			if target == nil && sl.master {
				target = sl
			}
		})
		if target == nil {
			return false
		}
		line := target.line
		r := line.Region()
		idx := line.Index()
		if d := s.md3Probe(r); d != nil && d.li[idx].Kind == LocLLC {
			d.li[idx] = Mem()
		}
		for _, n := range s.nodes {
			if ent := n.entry(r); ent != nil {
				if ent.li[idx].Kind == LocLLC {
					ent.li[idx] = Mem()
				} else if ent.li[idx].Local() {
					if _, _, lsl := n.localSlot(ent, idx); !lsl.master {
						lsl.rp = Mem()
					}
				}
			}
		}
		target.dirty = true
		return true
	})
}

func TestAuditorDetectsScrambleDivergence(t *testing.T) {
	cfg := testConfig(false)
	cfg.DynamicIndexing = true
	s := NewSystem(cfg)
	rng := mem.NewRNG(78)
	for i := 0; i < 3000; i++ {
		s.Access(mem.Access{Node: rng.Intn(cfg.Nodes), Addr: addrOf(rng.Intn(16), rng.Intn(16)), Kind: mem.Load})
	}
	mustCheck(t, s)
	corrupt(t, s, "scramble", func() bool {
		for _, n := range s.nodes {
			var ent *nodeRegion
			n.md2.ForEach(func(set, way int, key uint64) {
				if ent == nil {
					e := n.md2Ent[n.md2.Index(set, way)]
					// Pick an entry with no local lines so only the
					// scramble check trips (not determinism).
					if n.localLineCount(e) == 0 {
						ent = e
					}
				}
			})
			if ent != nil {
				ent.scramble ^= 0xdead
				return true
			}
		}
		return false
	})
}
