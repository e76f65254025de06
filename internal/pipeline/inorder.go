package pipeline

import (
	"gemstone/internal/isa"
	"gemstone/internal/mem"
)

// storeBuffer models a small ring of store-buffer slots: a store occupies a
// slot from issue until its write drains to the memory system, and a full
// buffer stalls the pipeline. This is what bounds (but does not eliminate)
// the cost of store misses on both core models.
type storeBuffer struct {
	slots []uint64 // cycle at which each slot drains
	head  int
}

// reset prepares the buffer for a fresh run with n slots, reusing the
// backing array across runs.
func (sb *storeBuffer) reset(n int) {
	if cap(sb.slots) < n {
		sb.slots = make([]uint64, n)
	} else {
		sb.slots = sb.slots[:n]
		clear(sb.slots)
	}
	sb.head = 0
}

// push reserves a slot for a store issued at cycle `start` whose write
// takes drainLat cycles to reach the memory system. It returns the cycle at
// which the pipeline may proceed (start, unless the buffer was full).
func (sb *storeBuffer) push(start uint64, drainLat int) uint64 {
	free := sb.slots[sb.head]
	if free > start {
		start = free // stall until the oldest store drains
	}
	sb.slots[sb.head] = start + uint64(drainLat)
	sb.head++
	if sb.head == len(sb.slots) {
		sb.head = 0
	}
	return start
}

const inOrderStoreBufferSlots = 4

// inOrderLane is one operating point's timing state in the stall-on-use
// in-order model (Cortex-A7 class).
type inOrderLane struct {
	clk mem.Clock
	// regReady is sized 256 for bounds-check-free indexing by the uint8
	// register fields.
	regReady     [256]uint64
	cycle        uint64 // earliest cycle the next instruction may issue
	slots        int    // instructions already issued this cycle
	fetchReady   uint64
	lastComplete uint64
	sb           storeBuffer
	t            Tally // stall counters
}

func (l *inOrderLane) reset(clk mem.Clock) {
	l.clk = clk
	clear(l.regReady[:])
	l.cycle, l.slots, l.fetchReady, l.lastComplete = 0, 0, 0, 0
	l.sb.reset(inOrderStoreBufferSlots)
	l.t = Tally{}
}

// inOrderBlock is phase B of the in-order model for one block: it times
// the block's events on lane l. The lane's scalars live in locals for the
// block, so the loop runs on registers, and the common path is written
// with max and conditional moves rather than branches: the outcome of each
// test varies from instruction to instruction, and a mispredicted host
// branch costs more than the arithmetic it skips.
func (c *Core) inOrderBlock(l *inOrderLane, ev []event) {
	clk := l.clk
	regReady := &l.regReady
	sb := &l.sb
	cycle, slots, fetchReady, lastComplete := l.cycle, l.slots, l.fetchReady, l.lastComplete
	var fetchStall, depStall, memStall, branchStall, barrierStall uint64

	baseFetchLat := c.Hier.L1I.LatencyCycles()
	issueWidth := c.cfg.IssueWidth
	redirectPenalty := uint64(c.cfg.FrontendDepth + c.cfg.MispredictPenalty)
	strexRetry := uint64(c.cfg.StrexRetryCycles)
	latTab := &c.latTab

	for _, e := range ev {
		flags := e.flags

		// Frontend: a fetch-group miss beyond the pipelined hit latency
		// stalls delivery. An instruction that opens no group has a zero
		// fetch latency, so it adds nothing; and since cycle never falls,
		// raising fetchReady to cycle changes no later stall. That makes
		// fetchReady the issue cycle before operands are considered.
		extra := max(e.fetch.Cycles(clk)-baseFetchLat, 0)
		fetchReady = max(fetchReady, cycle+uint64(extra))
		fetchStall += fetchReady - cycle

		// Issue: stall-on-use semantics. The operands' maximum does not
		// depend on the issue chain, so it is taken first.
		start := max(fetchReady, max(regReady[e.src1], regReady[e.src2]))
		depStall += start - fetchReady
		if start > cycle {
			slots = 0
		}
		cycle = start

		// Execute. A load's data latency extends its load-use latency.
		lat := latTab[e.op]
		complete := start + lat + uint64(e.data.Cycles(clk))*uint64(flags>>evLoadBit&1)
		// A correctly predicted taken branch costs a fetch bubble.
		if flags&evTakenCut != 0 {
			slots = 0
		}
		cycle += uint64(flags >> evTakenCutBit & 1)
		if flags&(evStore|evBarrier|evMispredict) != 0 {
			switch {
			case flags&evStore != 0:
				st := sb.push(start, e.data.Cycles(clk))
				if st > start {
					memStall += st - start
					cycle = st
					slots = 0
					complete = st + lat
				}
				if flags&evStrexFail != 0 { // store-exclusive retry
					cycle = complete + strexRetry
					slots = 0
				}
			case flags&evBarrier != 0:
				drainTo := max(cycle, lastComplete) + uint64(e.data)
				barrierStall += drainTo - cycle
				cycle = drainTo
				slots = 0
				complete = cycle
			default: // evMispredict
				redirect := complete + redirectPenalty
				branchStall += redirect - cycle
				cycle = redirect
				slots = 0
				fetchReady = cycle
			}
		}

		lastComplete = max(lastComplete, complete)
		// An op without a destination writes its register's old value
		// back.
		v := regReady[e.dst]
		if writesDst[e.op] {
			v = complete
		}
		regReady[e.dst] = v

		slots++
		if slots >= issueWidth {
			slots = 0
			cycle++
		}
	}

	l.cycle, l.slots, l.fetchReady, l.lastComplete = cycle, slots, fetchReady, lastComplete
	l.t.FetchStallCycles += fetchStall
	l.t.DepStallCycles += depStall
	l.t.MemStallCycles += memStall
	l.t.BranchStallCycles += branchStall
	l.t.BarrierStallCycles += barrierStall
}

// chargeWrongPath models the squashed instructions fetched down a
// mispredicted path: they count as speculative work and pollute the
// instruction-side hierarchy (including the ITLB — the mechanism behind
// the paper's Cluster A finding that gem5 branch mispredictions drive L2
// ITLB traffic). Its latencies are discarded, so it belongs to phase A.
func (c *Core) chargeWrongPath(fe *frontend, in *isa.Inst) {
	// Squash reach: roughly one fetch group enters the pipeline before the
	// redirect propagates. (The paper's Fig. 6 observes only ~1.1x more
	// speculatively executed instructions in the model than on hardware
	// even with 21x the mispredicts, so the per-squash wrong-path depth is
	// small.)
	fe.wrongPath += uint64(c.cfg.FetchWidth)

	// The wrong path starts at the predicted (wrong) continuation: for a
	// branch wrongly predicted taken this is the stale BTB target; for one
	// wrongly predicted not-taken it is the fall-through. Either way the
	// frontend touches one or two extra lines there.
	wrongPC := in.PC + 8
	if in.Op == isa.OpBranchInd || in.Op == isa.OpReturn {
		// Wrong indirect targets land far away — often on another page.
		wrongPC = in.Target ^ 0x1740
	} else if !in.Taken {
		wrongPC = in.Target // predicted taken, actually not taken
	}
	line := uint64(c.Hier.L1I.LineBytes())
	for i := uint64(0); i < 2; i++ {
		fe.fetches++
		c.Hier.Fetch(wrongPC + i*line)
	}
	// Stale BTB/RAS entries steer a share of wrong paths to far-away
	// addresses; the resulting speculative translation reaches the L2
	// ITLB before the squash. The far page cycles deterministically over
	// a set larger than the L1 ITLB, so this traffic scales with the
	// misprediction count — the coupling Section IV-C exposes.
	farPC := in.PC + (((fe.wrongPath/4)&63)+1)*4096
	c.Hier.WrongPathProbe(farPC)
}
