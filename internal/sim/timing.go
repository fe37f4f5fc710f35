package sim

// timing is the engine's timing stage: the CPU overlap model of §V-D
// applied to the outcomes the machine stage wrote into a slab. It owns
// every piece of engine state the model touches — each node has two
// clocks: the issue clock advances roughly one cycle per access (the
// OoO frontend runs ahead), and determines whether a later access to an
// in-flight line is a late hit; the retire clock additionally absorbs
// the blocking fraction of each stall and is what Cycles reports.
//
// Nothing here flows back into the machine: the model is a pure
// function of the stepped accesses and their (latency, L1 hit)
// outcomes, consumed in step order. That is what lets the feed run this
// stage on its helper goroutine, behind the machine stage, with Reports
// identical to timing inline.
type timing struct {
	clock  []uint64   // retire clocks
	issue  []uint64   // issue clocks
	inFly  []inflight // per node: line -> issue-ready time (MSHR stand-in)
	report Report
}

func newTiming(nodes int) timing {
	t := timing{clock: make([]uint64, nodes), issue: make([]uint64, nodes), inFly: make([]inflight, nodes)}
	for i := range t.inFly {
		t.inFly[i] = newInflight()
	}
	return t
}

// reset starts a measurement window: clocks at zero, no miss in flight,
// an empty report.
func (t *timing) reset() {
	clear(t.clock)
	clear(t.issue)
	for i := range t.inFly {
		t.inFly[i].reset()
	}
	t.report = Report{missLat: make([]uint64, missLatBuckets)}
}

// step times one stepped segment. The loop keeps the slice headers and
// the report's counters in locals instead of going through t on every
// access.
func (t *timing) step(s slab) {
	issue, clock, inFly, missLat := t.issue, t.clock, t.inFly, t.report.missLat
	var fetches, lateI, lateD, misses uint64
	lats, hits := s.lat[:len(s.acc)], s.hit[:len(s.acc)]
	for i := range s.acc {
		a := &s.acc[i]
		n := a.Node
		now := issue[n]
		lat := lats[i]
		instr := a.Kind.IsInstr()
		if instr {
			fetches++
		}

		stall := 0.0
		if hits[i] {
			// The probe can only find a live entry while some miss is
			// still in flight (maxReady bounds every entry's ready
			// time), so hit-dominated phases skip it on one compare.
			if inf := &inFly[n]; inf.maxReady > now {
				if ready, ok := inf.lookup(a.Addr.Line()); ok && ready > now {
					// Late hit: the line is still in flight (a
					// secondary miss on the MSHR); part of the residual
					// wait blocks. An entry whose ready time has passed
					// is dead — the table reclaims it lazily.
					wait := float64(ready - now)
					stall = wait * lateHitBlocking
					if instr {
						lateI++
					} else {
						lateD++
					}
				}
			}
		} else {
			inFly[n].insert(a.Addr.Line(), now+lat, now)
			missLat[min(lat, missLatBuckets-1)]++
			misses++
			switch {
			case instr:
				stall = float64(lat) * ifetchBlocking
			case a.Kind.IsWrite():
				stall = float64(lat) * storeBlocking
			default:
				stall = float64(lat) * loadBlocking
			}
		}
		issue[n] = now + baseCyclesPerAccess
		clock[n] += baseCyclesPerAccess + uint64(stall)
	}
	rep := &t.report
	rep.FetchAccesses += fetches
	rep.LateHitsI += lateI
	rep.LateHitsD += lateD
	rep.misses += misses
	rep.Accesses += uint64(len(s.acc))
}

// result finalizes the report at the current step — per-node clocks
// copied out, Cycles as their max, Instructions derived from fetches.
// The returned Report shares the latency histogram with the live one;
// a caller that keeps stepping copies it first.
func (t *timing) result() Report {
	rep := t.report
	rep.NodeCycles = make([]uint64, len(t.clock))
	for i, c := range t.clock {
		rep.NodeCycles[i] = c
		rep.Cycles = max(rep.Cycles, c)
	}
	rep.Instructions = rep.FetchAccesses * InstructionsPerFetch
	return rep
}
