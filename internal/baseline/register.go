package baseline

import (
	"d2m/internal/core"
	"d2m/internal/mem"
)

// Registration of the tagged baseline systems with the core package's
// mechanism registry: Base-2L and Base-3L become ordinary mechanisms
// next to the D2M family, so the layers above construct, snapshot and
// release them through the same MechInstance interface. The baseline
// package may import core (core never imports baseline), which is what
// lets one registry span both families.

// mechInstance adapts a *System to core.MechInstance.
type mechInstance struct{ s *System }

func (bi mechInstance) Access(a mem.Access) (uint64, bool) {
	r := bi.s.Access(a)
	return r.Latency, r.L1Hit
}
func (bi mechInstance) AccessBlock(blk []mem.Access, lat []uint64, hit []bool) {
	s := bi.s
	lat, hit = lat[:len(blk)], hit[:len(blk)]
	for i, a := range blk {
		r := s.Access(a)
		lat[i], hit[i] = r.Latency, r.L1Hit
	}
}
func (bi mechInstance) ResetMeasurement()            { bi.s.ResetMeasurement() }
func (bi mechInstance) EpochLen() int                { return 0 }
func (bi mechInstance) EpochTick()                   {}
func (bi mechInstance) Release()                     { bi.s.Release() }
func (bi mechInstance) Snapshot() core.MechSnapshot  { return bi.s.Snapshot() }
func (bi mechInstance) Restore(ms core.MechSnapshot) { ms.(*Snapshot).RestoreInto(bi.s) }
func (bi mechInstance) Underlying() any              { return bi.s }

func registerBaseline(name string, order int, base func() Config) {
	core.RegisterMechanism(core.Mechanism{
		Name: name, Order: order, Baseline: true,
		New: func(o core.MechOptions) core.MechInstance {
			cfg := base()
			cfg.Nodes = o.Nodes
			cfg.Topology = o.Topology
			return mechInstance{s: NewSystem(cfg, false)}
		},
	})
}

func init() {
	registerBaseline("Base-2L", 0, Base2L)
	registerBaseline("Base-3L", 1, Base3L)
}
