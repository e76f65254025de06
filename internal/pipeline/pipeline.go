// Package pipeline implements the core timing models that consume
// instruction streams and drive the memory hierarchy and branch predictor.
//
// Two models are provided, matching the two Exynos-5422 clusters the paper
// studies: an in-order dual-issue core (Cortex-A7 class) and an
// out-of-order window-based core (Cortex-A15 class). The out-of-order model
// is a bounded-dataflow ("interval") simulation: each instruction's issue
// time is the maximum of its operand-ready times and structural
// constraints (fetch bandwidth, issue ports, reorder-buffer occupancy,
// retire bandwidth), which captures the latency-hiding behaviour that
// separates big from LITTLE cores without simulating every pipeline stage.
//
// Each model is one two-phase kernel (Core.RunSweep). Phase A walks a block
// of instructions once and does all the work the core clock cannot change:
// fetch-group detection, the memory-hierarchy accesses, contention draws,
// branch prediction and wrong-path charging. It leaves one event per
// instruction: the fetch and data latencies as mem.Latency decompositions,
// the mispredict and store-exclusive outcomes and the barrier wait. Phase
// B replays the block's events on one timing lane per operating point,
// each with its own scoreboard and structural state and its own DRAM cycle
// pair. A whole DVFS sweep thus costs one memory-system simulation plus
// one cheap timing pass per frequency; a single run (Core.Run) is the
// sweep of one lane at the hierarchy's clock. When a sweep's points
// arrive one at a time, Core.Record writes the first run's whole event
// log into a Log the caller owns, and Core.Replay times each later point
// as one more lane over it. A Log is a value: no later run of the core
// changes it, so it stays valid for as long as its owner keeps it.
package pipeline

import (
	"fmt"
	"math/bits"
	"slices"

	"gemstone/internal/branch"
	"gemstone/internal/isa"
	"gemstone/internal/mem"
	"gemstone/internal/xrand"
)

// Kind selects the timing model.
type Kind int

const (
	// InOrder is a stall-on-use in-order pipeline (Cortex-A7 class).
	InOrder Kind = iota
	// OutOfOrder is a window-based out-of-order pipeline (Cortex-A15 class).
	OutOfOrder
)

// String returns a human-readable model name.
func (k Kind) String() string {
	if k == InOrder {
		return "in-order"
	}
	return "out-of-order"
}

// Latencies gives the execute latency in cycles for each instruction class.
// Memory classes hold the non-memory part of the latency; cache/DRAM time
// is charged by the hierarchy.
type Latencies [isa.NumOps]int

// Config describes one core timing model.
type Config struct {
	// Name identifies the core in diagnostics (e.g. "a15").
	Name string
	// Kind selects in-order or out-of-order timing.
	Kind Kind
	// FetchWidth is instructions fetched per I-side access.
	FetchWidth int
	// IssueWidth is instructions issued per cycle.
	IssueWidth int
	// ROBSize bounds in-flight instructions (OutOfOrder only).
	ROBSize int
	// RetireWidth bounds instructions retired per cycle (OutOfOrder only).
	RetireWidth int
	// FrontendDepth is the fetch-to-dispatch depth in cycles; it sets the
	// minimum branch-mispredict redirect cost.
	FrontendDepth int
	// MispredictPenalty is the additional refill penalty after a branch
	// mispredict resolves.
	MispredictPenalty int
	// Lat gives per-class execute latencies.
	Lat Latencies
	// FetchPerInstruction models the gem5 defect of performing one L1I
	// access per instruction instead of one per fetch group; it roughly
	// doubles L1I accesses (paper Fig. 6) without changing timing much.
	FetchPerInstruction bool
	// BarrierDrainCycles is the pipeline-drain cost of a memory barrier.
	BarrierDrainCycles int
	// StrexRetryCycles is the replay cost of a failed store-exclusive.
	StrexRetryCycles int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 {
		return fmt.Errorf("pipeline: %q: widths must be positive", c.Name)
	}
	if c.Kind == OutOfOrder && (c.ROBSize <= 0 || c.RetireWidth <= 0) {
		return fmt.Errorf("pipeline: %q: out-of-order needs ROBSize and RetireWidth", c.Name)
	}
	if c.FrontendDepth < 1 || c.MispredictPenalty < 0 {
		return fmt.Errorf("pipeline: %q: bad frontend parameters", c.Name)
	}
	for op, l := range c.Lat {
		if l < 0 {
			return fmt.Errorf("pipeline: %q: negative latency for %v", c.Name, isa.Op(op))
		}
	}
	return nil
}

// SyncModel injects multi-threaded contention effects into a run: snoop
// traffic from sibling cores, barrier wait times and store-exclusive
// failures. Single-threaded workloads use a nil SyncModel.
//
// This replaces cycle-level simulation of sibling cores: what the paper's
// analysis observes from concurrency is barrier/exclusive event rates,
// snoop counts and the attendant stall cycles, all of which the model
// produces deterministically.
type SyncModel struct {
	rng *xrand.RNG
	// SnoopProb is the per-memory-access probability of an incoming
	// coherence snoop for the accessed line.
	SnoopProb float64
	// BarrierWaitMean is the mean extra wait (cycles) per barrier,
	// modelling arrival skew at synchronisation points.
	BarrierWaitMean float64
	// StrexFailProb is the probability a store-exclusive loses the line to
	// a sibling and must retry.
	StrexFailProb float64
}

// NewSyncModel builds a contention model with a deterministic seed.
func NewSyncModel(seed uint64, snoopProb, barrierWaitMean, strexFailProb float64) *SyncModel {
	return &SyncModel{
		rng:             xrand.New(seed),
		SnoopProb:       snoopProb,
		BarrierWaitMean: barrierWaitMean,
		StrexFailProb:   strexFailProb,
	}
}

// Tally is the raw event record of one run. The PMU and gem5-statistics
// layers derive all architectural events from a Tally plus the component
// stats held by the hierarchy and predictor.
type Tally struct {
	Cycles    uint64
	Committed uint64
	OpCounts  [isa.NumOps]uint64
	// WrongPathInsts approximates instructions fetched down mispredicted
	// paths (speculatively executed but squashed).
	WrongPathInsts uint64
	FetchAccesses  uint64 // I-side accesses issued by the frontend
	StrexRetries   uint64

	// Stall attribution (cycles); the sum can exceed Cycles when causes
	// overlap in the out-of-order model.
	FetchStallCycles   uint64
	DepStallCycles     uint64
	MemStallCycles     uint64
	BranchStallCycles  uint64
	BarrierStallCycles uint64
	ROBStallCycles     uint64
}

// IPC returns committed instructions per cycle.
func (t *Tally) IPC() float64 {
	if t.Cycles == 0 {
		return 0
	}
	return float64(t.Committed) / float64(t.Cycles)
}

// Core binds a timing model to its memory hierarchy and branch predictor.
type Core struct {
	cfg  Config
	Hier *mem.Hierarchy
	Pred *branch.Predictor
	Sync *SyncModel // nil for single-threaded runs

	// Per-op execute latencies and port occupancies, indexed by the uint8
	// op so the timing loops need no bounds check.
	latTab, busyTab [256]uint64

	// Run-loop scratch reused across runs: the block buffer, one block of
	// phase A's events and the timing lanes. Every lane is reset at the
	// start of a run, so a reused Core produces output identical to a
	// fresh one; reuse only removes the per-run allocations.
	blk      []isa.Inst
	ev       []event
	inLanes  []inOrderLane
	oooLanes []oooLane
}

// Log is one recorded run (see Core.Record): its whole phase-A event log,
// one 24-byte event per instruction, and its frequency-invariant tally
// counters. The zero Log is an empty run. Record reuses a Log's storage.
type Log struct {
	ev []event
	fe frontend
}

// writesDst marks the instruction classes that write a destination register
// visible to the dependency scoreboard: everything except plain branches,
// barriers and stores (calls/returns/indirect branches write the link or
// address register, so they stay in). The table is sized 256 so that
// indexing by the uint8 Op never needs a bounds check in the timing loops.
var writesDst = func() (w [256]bool) {
	for op := 0; op < isa.NumOps; op++ {
		o := isa.Op(op)
		w[op] = o != isa.OpBranch && o != isa.OpBarrier && !o.IsStore()
	}
	return
}()

// instBlockSize is the batch the timing loops request from a BlockStream:
// large enough to amortise the per-block call, small enough that the
// buffer and its events stay L1-resident (256 instructions of 32 bytes =
// 8 KB, 256 events of 24 bytes = 6 KB).
const instBlockSize = 256

// block returns the core's reusable instruction block buffer.
func (c *Core) block() []isa.Inst {
	if c.blk == nil {
		c.blk = make([]isa.Inst, instBlockSize)
	}
	return c.blk
}

// scratchU64 returns buf resized to n zeroed elements, reusing its backing
// array when possible.
func scratchU64(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
		return *buf
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// lanes returns buf resized to n elements, keeping the lanes (and their
// scratch storage) it already holds.
func lanes[L any](buf *[]L, n int) []L {
	if len(*buf) < n {
		*buf = append(*buf, make([]L, n-len(*buf))...)
	}
	return (*buf)[:n]
}

// NewCore builds a core, panicking on invalid configuration.
func NewCore(cfg Config, hier *mem.Hierarchy, pred *branch.Predictor) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{cfg: cfg, Hier: hier, Pred: pred}
	for op, l := range cfg.Lat {
		c.latTab[op] = uint64(l)
	}
	// Divides are unpipelined and hold their port for the full latency;
	// everything else is fully pipelined.
	for op := range c.busyTab {
		c.busyTab[op] = 1
	}
	c.busyTab[isa.OpIntDiv] = c.latTab[isa.OpIntDiv]
	c.busyTab[isa.OpFPDiv] = c.latTab[isa.OpFPDiv]
	return c
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Run executes the stream to completion at the hierarchy's clock and
// returns the tally: RunSweep with one lane.
func (c *Core) Run(stream isa.BlockStream) Tally {
	clocks := [1]mem.Clock{c.Hier.Clock()}
	var out [1]Tally
	c.RunSweep(stream, clocks[:], out[:])
	return out[0]
}

// RunSweep executes the stream to completion once and times it on one lane
// per clock, writing lane i's tally to out[i] (len(out) must equal
// len(clocks)). Each tally is bit-identical to a Run with the hierarchy
// set to that lane's clock: the memory system, predictor and contention
// model run once (phase A), in exactly Run's call order, and only the
// timing arithmetic runs per lane (phase B). A sweep holds phase A's
// events one block at a time.
func (c *Core) RunSweep(stream isa.BlockStream, clocks []mem.Clock, out []Tally) {
	if len(out) != len(clocks) {
		panic(fmt.Sprintf("pipeline: %d tallies for %d clocks", len(out), len(clocks)))
	}
	c.run(stream, clocks, out, nil)
}

// Record is Run at clock clk that writes the run's whole phase-A event
// log into log, replacing what it held. Replay then times the same run at
// another clock without repeating phase A. n is the stream's length: the
// log's storage is sized to it once and reused by later recordings.
func (c *Core) Record(stream isa.BlockStream, n int, clk mem.Clock, log *Log) Tally {
	if cap(log.ev) < n {
		log.ev = make([]event, 0, n)
	}
	clocks := [1]mem.Clock{clk}
	var out [1]Tally
	c.run(stream, clocks[:], out[:], log)
	return out[0]
}

// Replay times log at clock clk: phase B alone, one more lane of the
// recorded run, whose tally is bit-identical to a Record of the same
// stream from the same starting state at clk. The log must have been
// recorded by a core of the same Config. The hierarchy, predictor and
// contention model are not touched.
func (c *Core) Replay(log *Log, clk mem.Clock) Tally {
	clocks := [1]mem.Clock{clk}
	var out [1]Tally
	c.resetLanes(clocks[:])
	c.timeBlock(log.ev, 1)
	c.finish(&log.fe, out[:])
	return out[0]
}

// run is the two-phase kernel: phase A and then phase B on every lane,
// one block at a time. With a log the blocks' events accumulate into it;
// otherwise each block reuses the core's one-block scratch.
func (c *Core) run(stream isa.BlockStream, clocks []mem.Clock, out []Tally, log *Log) {
	var fe frontend
	fe.reset(c)
	c.resetLanes(clocks)
	if cap(c.ev) < instBlockSize {
		c.ev = make([]event, 0, instBlockSize)
	}
	evs := c.ev[:0]
	if log != nil {
		evs = log.ev[:0]
	}
	buf := c.block()
	for {
		blk := buf[:stream.NextBlock(buf)]
		if len(blk) == 0 {
			break
		}
		n := len(evs)
		evs = slices.Grow(evs, len(blk))[:n+len(blk)]
		ev := evs[n:]
		c.frontBlock(&fe, blk, ev)
		c.timeBlock(ev, len(clocks))
		if log == nil {
			evs = evs[:0]
		}
	}
	if log != nil {
		log.ev, log.fe = evs, fe
	}
	c.finish(&fe, out)
}

// resetLanes readies one timing lane per clock.
func (c *Core) resetLanes(clocks []mem.Clock) {
	if c.cfg.Kind == InOrder {
		ins := lanes(&c.inLanes, len(clocks))
		for i := range ins {
			ins[i].reset(clocks[i])
		}
	} else {
		ooos := lanes(&c.oooLanes, len(clocks))
		for i := range ooos {
			ooos[i].reset(c, clocks[i])
		}
	}
}

// timeBlock is phase B: it times ev on the first n lanes.
func (c *Core) timeBlock(ev []event, n int) {
	if c.cfg.Kind == InOrder {
		for i := range c.inLanes[:n] {
			c.inOrderBlock(&c.inLanes[i], ev)
		}
	} else {
		for i := range c.oooLanes[:n] {
			c.oooBlock(&c.oooLanes[i], ev)
		}
	}
}

// finish writes each lane's tally, with fe's frequency-invariant
// counters, to out.
func (c *Core) finish(fe *frontend, out []Tally) {
	for i := range out {
		if c.cfg.Kind == InOrder {
			l := &c.inLanes[i]
			out[i] = l.t
			out[i].Cycles = max(l.cycle, l.lastComplete)
		} else {
			l := &c.oooLanes[i]
			out[i] = l.t
			out[i].Cycles = l.lastRetire
		}
		fe.fill(&out[i])
	}
}

// event is phase A's record of one instruction: everything its timing
// depends on, with the memory-system outcomes in clock-independent form.
// The timing lanes read events only, never the instruction block.
type event struct {
	// fetch is the I-side access of the fetch group the instruction opens
	// (evFetch set), and zero otherwise.
	fetch mem.Latency
	// data is the data access of a load or store, and the synchronisation
	// wait in cycles of a barrier.
	data mem.Latency
	// The instruction's op and registers.
	op, src1, src2, dst uint8
	flags               uint8
}

// event flag bits. The class flags let a lane branch on a few bits, or
// mask by them, instead of switching on the op.
const (
	evFetchBit      = iota // the instruction opens a fetch group
	evLoadBit              // load or load-exclusive: data is its latency
	evStoreBit             // store or store-exclusive: data is its latency
	evBarrierBit           // data is the barrier's wait
	evMispredictBit        // a control-flow instruction was mispredicted
	evTakenCutBit          // a correctly predicted taken branch ends the fetch group (in-order)
	evStrexFailBit         // a store-exclusive failed and replays
)

// event flags.
const (
	evFetch      = 1 << evFetchBit
	evLoad       = 1 << evLoadBit
	evStore      = 1 << evStoreBit
	evBarrier    = 1 << evBarrierBit
	evMispredict = 1 << evMispredictBit
	evTakenCut   = 1 << evTakenCutBit
	evStrexFail  = 1 << evStrexFailBit
)

// noGroup is a fetch-group id no PC maps to: the next instruction opens a
// new group.
const noGroup = ^uint64(0)

// frontend is phase A's state across blocks: the fetch-group tracker and
// the tally counters every lane shares.
type frontend struct {
	bytes    uint64 // fetch-group size in bytes
	pow2     bool
	shift    uint
	perInst  bool // Config.FetchPerInstruction
	takenCut bool // a taken branch ends the fetch group (in-order)
	curGroup uint64

	committed, wrongPath, fetches, strexRetries uint64
	// opCounts is sized 256 for bounds-check-free indexing by the uint8 op.
	opCounts [256]uint64
}

func (fe *frontend) reset(c *Core) {
	// Fetch-group ids are PC/bytes; for power-of-two widths (every real
	// config) the division becomes a shift, which matters at one division
	// per instruction.
	*fe = frontend{
		bytes:    uint64(c.cfg.FetchWidth) * 4,
		perInst:  c.cfg.FetchPerInstruction,
		takenCut: c.cfg.Kind == InOrder,
		curGroup: noGroup,
	}
	fe.pow2 = fe.bytes&(fe.bytes-1) == 0
	fe.shift = uint(bits.TrailingZeros64(fe.bytes))
}

// fill copies the frequency-invariant counters into t.
func (fe *frontend) fill(t *Tally) {
	t.Committed = fe.committed
	for op := range t.OpCounts {
		t.OpCounts[op] = fe.opCounts[op]
	}
	t.WrongPathInsts = fe.wrongPath
	t.FetchAccesses = fe.fetches
	t.StrexRetries = fe.strexRetries
}

// frontBlock is phase A for one block: it drives the hierarchy, predictor
// and contention model for every instruction, in program order, and writes
// ev[i] for blk[i].
func (c *Core) frontBlock(fe *frontend, blk []isa.Inst, ev []event) {
	hier := c.Hier
	curGroup, fetches := fe.curGroup, fe.fetches
	shift, pow2, perInst, takenCut := fe.shift, fe.pow2, fe.perInst, fe.takenCut
	for i := range blk {
		in, e := &blk[i], &ev[i]
		e.op, e.src1, e.src2, e.dst = uint8(in.Op), in.Src1, in.Src2, in.Dst
		e.fetch = 0
		var flags uint8

		// One I-side access per fetch group. Under the gem5 defect the
		// lookup repeats per instruction: the repeats hit the line just
		// fetched, so timing is unaffected, but the access counts (L1I,
		// ITLB) are inflated — the paper's Fig. 6 shows >2x L1I accesses
		// for exactly this reason.
		group := in.PC >> shift
		if !pow2 {
			group = in.PC / fe.bytes
		}
		if group != curGroup {
			curGroup = group
			fetches++
			e.fetch = hier.Fetch(in.PC)
			flags = evFetch
		} else if perInst {
			fetches++
			hier.Fetch(in.PC)
		}

		switch in.Op {
		case isa.OpLoad:
			c.maybeSnoop(in.Addr)
			e.data = hier.Load(in.Addr, in.Unaligned)
			flags |= evLoad
		case isa.OpLoadEx:
			e.data = hier.LoadExclusive(in.Addr)
			flags |= evLoad
		case isa.OpStore:
			c.maybeSnoop(in.Addr)
			e.data = hier.Store(in.Addr, int(in.Size), in.Unaligned)
			flags |= evStore
		case isa.OpStoreEx:
			if c.Sync != nil && c.Sync.StrexFailProb > 0 && c.Sync.rng.Bool(c.Sync.StrexFailProb) {
				// A sibling stole the line between LDREX and STREX.
				hier.InjectSnoop(in.Addr)
			}
			lat, ok := hier.StoreExclusive(in.Addr)
			e.data = lat
			flags |= evStore
			if !ok {
				flags |= evStrexFail
				fe.strexRetries++
			}
		case isa.OpBarrier:
			hier.Barrier()
			e.data = mem.Latency(c.barrierWait())
			flags |= evBarrier
		case isa.OpBranch, isa.OpCall, isa.OpReturn, isa.OpBranchInd:
			if !c.predict(in) {
				flags |= evMispredict
				fe.fetches = fetches
				c.chargeWrongPath(fe, in)
				fetches = fe.fetches
				curGroup = noGroup
			} else if in.Taken && takenCut {
				flags |= evTakenCut
				curGroup = noGroup
			}
		}
		e.flags = flags
		fe.opCounts[in.Op]++
	}
	fe.curGroup, fe.fetches = curGroup, fetches
	fe.committed += uint64(len(blk))
}

// predict routes one control-flow instruction through the predictor and
// reports whether it was predicted correctly.
func (c *Core) predict(in *isa.Inst) bool {
	switch in.Op {
	case isa.OpBranch:
		return c.Pred.PredictCond(in.PC, in.Taken, in.Target)
	case isa.OpCall:
		return c.Pred.Call(in.PC, in.Target, in.PC+4)
	case isa.OpReturn:
		return c.Pred.Return(in.PC, in.Target)
	case isa.OpBranchInd:
		return c.Pred.Indirect(in.PC, in.Target)
	}
	return true
}

// maybeSnoop injects sibling-core coherence traffic for data accesses.
func (c *Core) maybeSnoop(addr uint64) {
	if c.Sync != nil && c.Sync.SnoopProb > 0 && c.Sync.rng.Bool(c.Sync.SnoopProb) {
		c.Hier.InjectSnoop(addr)
	}
}

func (c *Core) barrierWait() uint64 {
	w := uint64(c.cfg.BarrierDrainCycles)
	if c.Sync != nil && c.Sync.BarrierWaitMean > 0 {
		w += uint64(c.Sync.rng.Exp(c.Sync.BarrierWaitMean))
	}
	return w
}
