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
package pipeline

import (
	"fmt"

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

	// Run-loop scratch reused across runs. Every field is (re)initialised
	// at the start of a run, so a reused Core produces output identical to
	// a fresh one; reuse only removes the per-run allocations.
	blk       []isa.Inst
	robRetire []uint64
	ports     []uint64
	sb        storeBuffer
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
// large enough to amortise the per-block call, small enough that the buffer
// stays L1-resident (256 instructions of 32 bytes = 8 KB).
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

// blockSource resolves the fastest delivery path a stream supports once,
// so the per-block refill is a single non-interface branch.
type blockSource struct {
	stream isa.Stream
	bs     isa.BlockStream // non-nil: batched copy path
	vs     isa.ViewStream  // non-nil: zero-copy view path
}

func newBlockSource(stream isa.Stream) blockSource {
	src := blockSource{stream: stream}
	src.bs, _ = stream.(isa.BlockStream)
	src.vs, _ = stream.(isa.ViewStream)
	return src
}

// next returns the next run of instructions, or an empty slice at end of
// stream. Views come straight from the stream's backing storage (no copy);
// the batched and scalar paths fill the core's block buffer. By the
// isa.BlockStream/ViewStream contracts all three paths drain the exact
// same sequence, which the golden equivalence tests pin.
func (src *blockSource) next(c *Core) []isa.Inst {
	if src.vs != nil {
		return src.vs.NextView(0)
	}
	buf := c.block()
	if src.bs != nil {
		return buf[:src.bs.NextBlock(buf)]
	}
	n := 0
	for n < len(buf) {
		in, ok := src.stream.Next()
		if !ok {
			break
		}
		buf[n] = in
		n++
	}
	return buf[:n]
}

// NewCore builds a core, panicking on invalid configuration.
func NewCore(cfg Config, hier *mem.Hierarchy, pred *branch.Predictor) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Core{cfg: cfg, Hier: hier, Pred: pred}
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Run executes the stream to completion and returns the tally.
func (c *Core) Run(stream isa.Stream) Tally {
	if c.cfg.Kind == InOrder {
		return c.runInOrder(stream)
	}
	return c.runOutOfOrder(stream)
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

// dataAccess performs the memory access for in and returns (latency,
// strexFailed).
func (c *Core) dataAccess(in *isa.Inst) (int, bool) {
	switch in.Op {
	case isa.OpLoad:
		c.maybeSnoop(in.Addr)
		return c.Hier.LoadAccess(in.Addr, in.Unaligned), false
	case isa.OpStore:
		c.maybeSnoop(in.Addr)
		return c.Hier.StoreAccess(in.Addr, int(in.Size), in.Unaligned), false
	case isa.OpLoadEx:
		return c.Hier.LoadExclusive(in.Addr), false
	case isa.OpStoreEx:
		if c.Sync != nil && c.Sync.StrexFailProb > 0 && c.Sync.rng.Bool(c.Sync.StrexFailProb) {
			// A sibling stole the line between LDREX and STREX.
			c.Hier.InjectSnoop(in.Addr)
		}
		lat, ok := c.Hier.StoreExclusive(in.Addr)
		return lat, !ok
	}
	return 0, false
}

func (c *Core) barrierWait() uint64 {
	w := uint64(c.cfg.BarrierDrainCycles)
	if c.Sync != nil && c.Sync.BarrierWaitMean > 0 {
		w += uint64(c.Sync.rng.Exp(c.Sync.BarrierWaitMean))
	}
	return w
}
