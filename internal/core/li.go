// Package core implements the paper's contribution: the Direct-to-Master
// (D2M) split cache hierarchy. A metadata hierarchy (per-node MD1 and MD2,
// global MD3) tracks per-region Location Information for every cacheline,
// while the data hierarchy is a set of tag-less arrays reachable only
// through that metadata.
package core

import "fmt"

// LocKind is the kind of place a Location can name.
type LocKind uint8

// Location kinds, mirroring the four cases of §III-A: a local cache level,
// the LLC, a remote node, or memory.
const (
	// LocMem means the master is (only) in memory.
	LocMem LocKind = iota
	// LocNode means the master is somewhere inside a remote node,
	// tracked only by its NodeID ("This allows nodes to move their
	// cachelines between their L1 and L2 without having to update
	// metadata in other nodes").
	LocNode
	// LocL1 is a way of the local L1 (I or D is implied by the region).
	LocL1
	// LocL2 is a way of the local L2.
	LocL2
	// LocLLC is a way of the LLC. For a far-side LLC, Way is the way in
	// the monolithic 32-way LLC. For a near-side LLC, Node is the slice
	// and Way the way within the 4-way slice (the 1NNNWW
	// reinterpretation of §IV-B).
	LocLLC
	// LocInvalid marks an LI that carries no information (e.g. MD3 LIs
	// of private regions). Encoded as one of the eight symbols of the
	// 011SSS group.
	LocInvalid
)

func (k LocKind) String() string {
	switch k {
	case LocMem:
		return "mem"
	case LocNode:
		return "node"
	case LocL1:
		return "l1"
	case LocL2:
		return "l2"
	case LocLLC:
		return "llc"
	case LocInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("lockind(%d)", uint8(k))
	}
}

// Location is the decoded form of a 6-bit Location Information entry
// (Table I). The set index is not part of the encoding — it derives from
// the line address (and the region's scramble under dynamic indexing) —
// so Location carries only what the hardware stores, at the widths
// Table I gives it: a 3-bit NodeID and an at most 5-bit way, each held
// in an int8 (Config.Validate caps nodes at 8 and ways at 32). A
// Location is 3 bytes, so a region entry's 16 LIs take 48 bytes.
type Location struct {
	Kind LocKind
	// Node is the remote node for LocNode, or the slice for LocLLC in a
	// near-side configuration.
	Node int8
	// Way is the way within the level for LocL1, LocL2 and LocLLC. The
	// sentinel WayUnresolved marks a victim location whose slice has
	// been chosen but whose slot is resolved at eviction time.
	Way int8
}

// WayUnresolved marks a Replacement Pointer whose target slice is chosen
// but whose exact slot will be picked when the eviction happens.
const WayUnresolved = -1

// Mem is the memory location.
func Mem() Location { return Location{Kind: LocMem} }

// Invalid is the invalid location.
func Invalid() Location { return Location{Kind: LocInvalid} }

// InNode returns a location naming a remote master node.
func InNode(n int) Location { return Location{Kind: LocNode, Node: int8(n)} }

// InL1 returns a local L1 location.
func InL1(way int) Location { return Location{Kind: LocL1, Way: int8(way)} }

// InL2 returns a local L2 location.
func InL2(way int) Location { return Location{Kind: LocL2, Way: int8(way)} }

// InLLC returns a far-side LLC location.
func InLLC(way int) Location { return Location{Kind: LocLLC, Way: int8(way)} }

// InSlice returns a near-side LLC location in the given node's slice.
func InSlice(node, way int) Location { return Location{Kind: LocLLC, Node: int8(node), Way: int8(way)} }

func (l Location) String() string {
	switch l.Kind {
	case LocNode:
		return fmt.Sprintf("node%d", l.Node)
	case LocL1:
		return fmt.Sprintf("l1.w%d", l.Way)
	case LocL2:
		return fmt.Sprintf("l2.w%d", l.Way)
	case LocLLC:
		return fmt.Sprintf("llc.n%d.w%d", l.Node, l.Way)
	default:
		return l.Kind.String()
	}
}

// Local reports whether the location is inside the node holding the LI
// (its own L1 or L2).
func (l Location) Local() bool { return l.Kind == LocL1 || l.Kind == LocL2 }

// The 6-bit encodings of Table I:
//
//	000NNN  in NodeID NNN
//	001WWW  in L1, way WWW
//	010WWW  in L2, way WWW
//	011SSS  eight symbols; MEM and INVALID are two of them
//	1WWWWW  in LLC, way WWWWW (far-side)
//	1NNNWW  in the NS-LLC slice of node NNN, way WW (near-side, §IV-B)
const (
	symMem     = 0
	symInvalid = 1
)

// EncodeLI encodes a Location into its 6-bit representation. nearSide
// selects the NS-LLC reinterpretation of the 1xxxxx group. It panics on
// unencodable locations (out-of-range ways or nodes), which would be
// construction bugs.
func EncodeLI(l Location, nearSide bool) uint8 {
	check := func(v int8, max int, what string) {
		if v < 0 || int(v) >= max {
			panic(fmt.Sprintf("core: %s %d out of range [0,%d)", what, v, max))
		}
	}
	switch l.Kind {
	case LocNode:
		check(l.Node, 8, "node")
		return uint8(l.Node)
	case LocL1:
		check(l.Way, 8, "l1 way")
		return 0b001000 | uint8(l.Way)
	case LocL2:
		check(l.Way, 8, "l2 way")
		return 0b010000 | uint8(l.Way)
	case LocMem:
		return 0b011000 | symMem
	case LocInvalid:
		return 0b011000 | symInvalid
	case LocLLC:
		if nearSide {
			check(l.Node, 8, "slice")
			check(l.Way, 4, "slice way")
			return 0b100000 | uint8(l.Node)<<2 | uint8(l.Way)
		}
		check(l.Way, 32, "llc way")
		return 0b100000 | uint8(l.Way)
	default:
		panic(fmt.Sprintf("core: unencodable location %v", l))
	}
}

// DecodeLI decodes a 6-bit LI produced by EncodeLI.
func DecodeLI(bits uint8, nearSide bool) Location {
	if bits >= 64 {
		panic(fmt.Sprintf("core: LI %#x wider than 6 bits", bits))
	}
	if bits&0b100000 != 0 {
		if nearSide {
			return InSlice(int(bits>>2)&0b111, int(bits)&0b11)
		}
		return InLLC(int(bits) & 0b11111)
	}
	switch bits >> 3 {
	case 0b000:
		return InNode(int(bits) & 0b111)
	case 0b001:
		return InL1(int(bits) & 0b111)
	case 0b010:
		return InL2(int(bits) & 0b111)
	default: // 0b011, symbols
		switch bits & 0b111 {
		case symMem:
			return Mem()
		default:
			return Invalid()
		}
	}
}
