package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"d2m/internal/mem"
	"d2m/internal/noc"
)

// The mechanism registry: every hierarchy kind the simulator can run —
// the D2M variants here, the tagged baselines registered by
// internal/baseline, and any future mechanism — is one Mechanism entry.
// Construction, stepping, the epoch hook, warm-state snapshot/restore
// and pool release are a single MechInstance interface, so the layers
// above (the root run paths, warm snapshots, vector lanes, the service
// capabilities document and the cluster prober) never switch on a
// closed enum: they ask the registry. Registering a mechanism makes it
// immediately runnable, snapshot-able, lane-groupable, sweepable and
// advertised fleet-wide.

// MechOptions is the mechanism-neutral slice of the run options: what a
// constructor needs to build its system. It deliberately mirrors the
// root Options fields that shape machine state, so mechanisms built
// from the same MechOptions share a warm identity.
type MechOptions struct {
	// Nodes is the core count.
	Nodes int
	// Seed drives stochastic policy decisions.
	Seed uint64
	// MDScale multiplies the MD1/MD2/MD3 set counts (baselines ignore
	// it).
	MDScale int
	// Bypass and Prefetch toggle the D2M-side optimizations (baselines
	// ignore them).
	Bypass   bool
	Prefetch bool
	// Placement selects the NS-LLC victim-slice policy.
	Placement PlacementPolicy
	// Topology selects the interconnect model (nil = crossbar).
	Topology noc.Topology
}

// MechSnapshot is a mechanism's frozen warm state. Concrete types are
// the core and baseline Snapshot types; the interface exists so the
// warm-snapshot layer can hold any mechanism's state without knowing
// its package.
type MechSnapshot interface {
	// SizeBytes returns the snapshot's approximate in-memory footprint.
	SizeBytes() int64
}

// MechInstance is one constructed, runnable hierarchy. It satisfies the
// sim engine's Machine contract and its optional BlockMachine and (via
// EpochLen/EpochTick) EpochMachine contracts directly, so the engine
// drives mechanisms without per-kind adapters.
type MechInstance interface {
	// Access performs one access, returning its critical-path latency
	// and whether it hit in the L1.
	Access(a mem.Access) (latency uint64, l1Hit bool)
	// AccessBlock performs the accesses of blk in order, writing the
	// outcome of blk[i] to lat[i] and hit[i]: exactly Access on each in
	// turn, with one dynamic dispatch per block instead of per access.
	AccessBlock(blk []mem.Access, lat []uint64, hit []bool)
	// ResetMeasurement starts the measurement window: statistics reset,
	// hierarchy state preserved.
	ResetMeasurement()
	// EpochLen returns the mechanism's epoch interval in accesses
	// (<= 0: no epoch hook).
	EpochLen() int
	// EpochTick fires at each epoch boundary.
	EpochTick()
	// Release returns the instance's pooled arrays; the instance must
	// not be used afterwards.
	Release()
	// Snapshot captures the instance's warm state; Restore overwrites a
	// freshly constructed same-config instance with a snapshot taken
	// from its twin. Restore panics on a snapshot of another mechanism
	// or configuration.
	Snapshot() MechSnapshot
	Restore(MechSnapshot)
	// Underlying exposes the concrete system (*core.System or
	// *baseline.System) for result extraction.
	Underlying() any
}

// Mechanism is one registered hierarchy kind.
type Mechanism struct {
	// Name is the canonical presentation name ("D2M-NS-R"). Matching is
	// case-insensitive with dashes optional.
	Name string
	// Aliases are additional accepted spellings (canonicalized the same
	// way).
	Aliases []string
	// Order fixes the presentation position and doubles as the root
	// package's stable Kind integer: the wire format and stored results
	// identify kinds by name, but in-process code indexes by this.
	Order int
	// Baseline marks the tagged comparison systems; D2M marks the
	// split-hierarchy family (a mechanism is one or the other).
	Baseline bool
	D2M      bool
	// ReportNearHit marks mechanisms whose results report the
	// near-side LLC hit ratios (the Table IV "near hits" columns).
	ReportNearHit bool
	// New constructs a fresh instance.
	New func(MechOptions) MechInstance
}

var (
	mechMu     sync.RWMutex
	mechByKey  = map[string]*Mechanism{}
	mechByOrd  = map[int]*Mechanism{}
	mechSorted []*Mechanism
)

func canonMechName(s string) string {
	return strings.ToLower(strings.ReplaceAll(s, "-", ""))
}

// RegisterMechanism adds a mechanism to the registry. It panics on a
// duplicate name, alias or order — registration happens at init time
// and a collision is a programming error.
func RegisterMechanism(m Mechanism) {
	if m.Name == "" || m.New == nil {
		panic("core: RegisterMechanism with empty name or nil constructor")
	}
	mechMu.Lock()
	defer mechMu.Unlock()
	cp := m
	for _, key := range append([]string{cp.Name}, cp.Aliases...) {
		k := canonMechName(key)
		if _, dup := mechByKey[k]; dup {
			panic(fmt.Sprintf("core: duplicate mechanism name %q", key))
		}
		mechByKey[k] = &cp
	}
	if _, dup := mechByOrd[cp.Order]; dup {
		panic(fmt.Sprintf("core: duplicate mechanism order %d (%s)", cp.Order, cp.Name))
	}
	mechByOrd[cp.Order] = &cp
	mechSorted = append(mechSorted, &cp)
	sort.Slice(mechSorted, func(a, b int) bool { return mechSorted[a].Order < mechSorted[b].Order })
}

// Mechanisms returns every registered mechanism in presentation order.
// The returned slice is a copy; the entries are shared and must not be
// mutated.
func Mechanisms() []*Mechanism {
	mechMu.RLock()
	defer mechMu.RUnlock()
	return append([]*Mechanism(nil), mechSorted...)
}

// MechanismByName resolves a kind name (case-insensitive, dashes
// optional, aliases included).
func MechanismByName(name string) (*Mechanism, bool) {
	mechMu.RLock()
	defer mechMu.RUnlock()
	m, ok := mechByKey[canonMechName(name)]
	return m, ok
}

// MechanismByOrder resolves a mechanism by its stable order integer.
func MechanismByOrder(order int) (*Mechanism, bool) {
	mechMu.RLock()
	defer mechMu.RUnlock()
	m, ok := mechByOrd[order]
	return m, ok
}

// coreInstance adapts a *System to MechInstance.
type coreInstance struct{ s *System }

func (ci coreInstance) Access(a mem.Access) (uint64, bool) {
	r := ci.s.Access(a)
	return r.Latency, r.L1Hit
}
func (ci coreInstance) AccessBlock(blk []mem.Access, lat []uint64, hit []bool) {
	s := ci.s
	lat, hit = lat[:len(blk)], hit[:len(blk)]
	for i, a := range blk {
		r := s.Access(a)
		lat[i], hit[i] = r.Latency, r.L1Hit
	}
}
func (ci coreInstance) ResetMeasurement()       { ci.s.ResetMeasurement() }
func (ci coreInstance) EpochLen() int           { return ci.s.EpochLen() }
func (ci coreInstance) EpochTick()              { ci.s.EpochTick() }
func (ci coreInstance) Release()                { ci.s.Release() }
func (ci coreInstance) Snapshot() MechSnapshot  { return ci.s.Snapshot() }
func (ci coreInstance) Restore(ms MechSnapshot) { ms.(*Snapshot).RestoreInto(ci.s) }
func (ci coreInstance) Underlying() any         { return ci.s }

// mechConfig builds the shared part of every D2M kind's configuration
// from the mechanism options, exactly as the root package's pre-registry
// coreConfig did (field-for-field, so the refactor is byte-identical).
func mechConfig(o MechOptions, tweak func(*Config)) Config {
	cfg := DefaultConfig()
	cfg.Nodes = o.Nodes
	cfg.Seed = o.Seed + 1
	cfg.MD2Pruning = true
	tweak(&cfg)
	cfg.CacheBypass = o.Bypass
	cfg.Prefetch = o.Prefetch
	cfg.Placement = o.Placement
	cfg.Topology = o.Topology
	cfg.MD1Sets *= o.MDScale
	cfg.MD2Sets *= o.MDScale
	cfg.MD3Sets *= o.MDScale
	return cfg
}

func registerD2M(name string, order int, nearHit bool, aliases []string, tweak func(*Config)) {
	RegisterMechanism(Mechanism{
		Name: name, Aliases: aliases, Order: order,
		D2M: true, ReportNearHit: nearHit,
		New: func(o MechOptions) MechInstance {
			return coreInstance{s: NewSystem(mechConfig(o, tweak))}
		},
	})
}

// The D2M family. Orders 0 and 1 belong to the baselines (registered by
// internal/baseline); the paper's three D2M variants, the hybrid, and
// the two adaptive mechanisms follow.
func init() {
	registerD2M("D2M-FS", 2, false, nil, func(c *Config) {})
	registerD2M("D2M-NS", 3, true, nil, func(c *Config) {
		c.NearSide = true
	})
	registerD2M("D2M-NS-R", 4, true, nil, func(c *Config) {
		c.NearSide = true
		c.Replication = true
		c.DynamicIndexing = true
	})
	registerD2M("D2M-Hybrid", 5, false, nil, func(c *Config) {
		c.NearSide = true
		c.Replication = true
		c.DynamicIndexing = true
		c.TraditionalL1 = true
	})
	registerD2M("D2M-Adaptive", 6, true, nil, func(c *Config) {
		c.NearSide = true
		c.Replication = true
		c.DynamicIndexing = true
		c.AdaptiveWays = true
		c.EpochLen = DefaultEpochLen
	})
	registerD2M("D2M-LevelPred", 7, true, nil, func(c *Config) {
		c.NearSide = true
		c.Replication = true
		c.DynamicIndexing = true
		c.LevelPred = true
		c.PredEntries = DefaultPredEntries
	})
}
