package pipeline

import "gemstone/internal/mem"

// The bounded-dataflow out-of-order model (Cortex-A15 class). Each
// instruction's issue time is the maximum of:
//
//   - its dispatch time (fetch-group delivery + frontend depth, gated by
//     reorder-buffer occupancy),
//   - its operands' ready times,
//   - a free issue port.
//
// Completion feeds the register scoreboard; retirement is in order and
// bounded by the retire width. Branch mispredictions stall the frontend
// until the branch resolves, which is how out-of-order cores convert bad
// prediction into execution time: the deeper the window, the more work a
// squash discards. This is the model through which the gem5-v1 BP defect
// becomes the paper's -51% execution-time MPE.

// oooLane is one operating point's timing state in the out-of-order model.
type oooLane struct {
	clk mem.Clock
	// regReady is sized 256 for bounds-check-free indexing by the uint8
	// register fields.
	regReady  [256]uint64
	robRetire []uint64 // retire time, ring by dynamic instruction index
	ports     []uint64 // next-free time per issue port
	sb        storeBuffer

	groupTime      uint64 // cycle the current fetch group is delivered
	redirect       uint64 // frontend resume time after a mispredict
	lastRetire     uint64 // retire time of the previous instruction
	retiredInCycle int
	rp             int   // ROB ring position (dynamic index mod ROBSize)
	t              Tally // stall counters
}

func (l *oooLane) reset(c *Core, clk mem.Clock) {
	l.clk = clk
	clear(l.regReady[:])
	l.robRetire = scratchU64(&l.robRetire, c.cfg.ROBSize)
	l.ports = scratchU64(&l.ports, c.cfg.IssueWidth)
	l.sb.reset(16)
	l.groupTime, l.redirect, l.lastRetire = 0, 0, 0
	l.retiredInCycle, l.rp = 0, 0
	l.t = Tally{}
}

// oooBlock is phase B of the out-of-order model for one block: it times
// the block's events on lane l. Like inOrderBlock it keeps the lane's
// scalars in locals and writes the common path with max and conditional
// moves rather than branches.
func (c *Core) oooBlock(l *oooLane, ev []event) {
	clk := l.clk
	regReady := &l.regReady
	robRetire, ports, sb := l.robRetire, l.ports, &l.sb
	groupTime, redirect, lastRetire := l.groupTime, l.redirect, l.lastRetire
	retiredInCycle, rp := l.retiredInCycle, l.rp
	var fetchStall, memStall, branchStall, barrierStall, robStall uint64

	baseFetchLat := c.Hier.L1I.LatencyCycles()
	l1dLat := c.Hier.L1D.LatencyCycles()
	frontendDepth := uint64(c.cfg.FrontendDepth)
	mispredict := uint64(c.cfg.MispredictPenalty)
	strexRetry := uint64(c.cfg.StrexRetryCycles)
	retireWidth := c.cfg.RetireWidth
	robSize := len(robRetire)
	latTab, busyTab := &c.latTab, &c.busyTab
	// Width 4 covers every shipped out-of-order config; its ports live in
	// registers for the block.
	wide4 := len(ports) == 4
	var p0, p1, p2, p3 uint64
	if wide4 {
		p0, p1, p2, p3 = ports[0], ports[1], ports[2], ports[3]
	}

	for _, e := range ev {
		flags := e.flags

		// Frontend delivery: a new fetch group arrives a cycle after the
		// last, no earlier than a mispredict redirect, plus any fetch miss
		// beyond the pipelined hit latency.
		next := max(groupTime+1, redirect)
		extra := uint64(max(e.fetch.Cycles(clk)-baseFetchLat, 0))
		if flags&evFetch != 0 {
			fetchStall += next - (groupTime + 1) + extra
			groupTime = next + extra
		}

		// Dispatch: bounded by ROB occupancy (the instruction ROBSize
		// older must have retired).
		dispatch := groupTime + frontendDepth
		older := max(robRetire[rp], dispatch)
		robStall += older - dispatch
		// Operand readiness; the operands' maximum does not depend on the
		// dispatch chain, so it is taken first.
		ready := max(older, max(regReady[e.src1], regReady[e.src2]))

		// Issue port: pick the earliest-free port (ties go to the lowest
		// index). Packing time<<2|index makes the min branchless, and the
		// packed compare resolves time ties toward the lowest index
		// exactly like the scan's strict < does. Cycle counts stay far
		// below 2^62, so the shift cannot overflow.
		var p int
		var pt uint64
		if wide4 {
			v := min(min(p0<<2, p1<<2|1), min(p2<<2|2, p3<<2|3))
			p, pt = int(v&3), v>>2
		} else {
			for i := 1; i < len(ports); i++ {
				if ports[i] < ports[p] {
					p = i
				}
			}
			pt = ports[p]
		}
		issue := max(ready, pt)
		lat := latTab[e.op]
		free := issue + busyTab[e.op]
		if wide4 {
			if p == 0 {
				p0 = free
			}
			if p == 1 {
				p1 = free
			}
			if p == 2 {
				p2 = free
			}
			if p == 3 {
				p3 = free
			}
		} else {
			ports[p] = free
		}

		// Execute. A load's data latency extends its completion, and any
		// part beyond the L1D hit latency counts as a memory stall.
		dlat := e.data.Cycles(clk) * int(flags>>evLoadBit&1)
		complete := issue + lat + uint64(dlat)
		memStall += uint64(max(dlat-l1dLat, 0))
		if flags&(evStore|evBarrier|evMispredict) != 0 {
			switch {
			case flags&evStore != 0:
				st := sb.push(issue, e.data.Cycles(clk))
				if st > issue {
					memStall += st - issue
					complete = st + lat
				}
				if flags&evStrexFail != 0 {
					complete += strexRetry
				}
			case flags&evBarrier != 0:
				// A barrier drains the window: it completes after
				// everything older has retired, plus the synchronisation
				// wait.
				complete = max(complete, lastRetire) + uint64(e.data)
				barrierStall += uint64(e.data)
			default: // evMispredict: the frontend refetches from the resolved target
				redirect = max(redirect, complete+mispredict)
				branchStall += mispredict
			}
		}

		// An op without a destination writes its register's old value
		// back.
		v := regReady[e.dst]
		if writesDst[e.op] {
			v = complete
		}
		regReady[e.dst] = v

		// In-order retirement, RetireWidth per cycle.
		retire := max(complete, lastRetire)
		same := retire == lastRetire
		retiredInCycle++
		if !same {
			retiredInCycle = 1
		}
		if same && retiredInCycle >= retireWidth {
			retire++
			retiredInCycle = 0
		}
		lastRetire = retire
		robRetire[rp] = retire
		rp++
		if rp == robSize {
			rp = 0
		}
	}

	if wide4 {
		ports[0], ports[1], ports[2], ports[3] = p0, p1, p2, p3
	}
	l.groupTime, l.redirect, l.lastRetire = groupTime, redirect, lastRetire
	l.retiredInCycle, l.rp = retiredInCycle, rp
	l.t.FetchStallCycles += fetchStall
	l.t.MemStallCycles += memStall
	l.t.BranchStallCycles += branchStall
	l.t.BarrierStallCycles += barrierStall
	l.t.ROBStallCycles += robStall
}
