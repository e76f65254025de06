package mem

import "fmt"

// DRAMConfig describes the off-chip memory model.
//
// The model is a banked open-page DRAM: each access maps to a bank, and the
// latency depends on whether the access hits the bank's open row. This is
// the level of detail the paper's findings require — Butko et al. and the
// microbenchmark analysis (Fig. 4) both identify "an overly simple DRAM
// model" and "DRAM memory latency too low" as gem5 error sources, which we
// reproduce with a lower RowHit/RowMiss latency in the gem5 configuration.
type DRAMConfig struct {
	// Banks is the number of independent banks (power of two).
	Banks int
	// RowBytes is the size of an open row per bank.
	RowBytes int
	// RowHitNs is the access latency when the row is already open.
	RowHitNs float64
	// RowMissNs is the access latency when a precharge+activate is needed.
	RowMissNs float64
	// BandwidthBytesPerNs bounds sustained throughput; each access to a
	// line adds LineBytes/Bandwidth of serialisation delay.
	BandwidthBytesPerNs float64
}

// Validate checks the configuration.
func (c DRAMConfig) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("mem: dram: bank count %d not a positive power of two", c.Banks)
	}
	if c.RowBytes <= 0 || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("mem: dram: row size %d not a positive power of two", c.RowBytes)
	}
	if c.RowHitNs <= 0 || c.RowMissNs < c.RowHitNs {
		return fmt.Errorf("mem: dram: bad latencies hit=%g miss=%g", c.RowHitNs, c.RowMissNs)
	}
	if c.BandwidthBytesPerNs <= 0 {
		return fmt.Errorf("mem: dram: bandwidth must be positive")
	}
	return nil
}

// DRAMStats accumulates raw DRAM event counts.
type DRAMStats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
}

// Accesses returns total reads+writes.
func (s *DRAMStats) Accesses() uint64 { return s.Reads + s.Writes }

// DRAM models off-chip memory's open-row state. Its latencies are in
// nanoseconds; the hierarchy converts them to core cycles at each
// frequency (Hierarchy.ClockAt), which is what makes memory-bound
// workloads scale sub-linearly with DVFS (Fig. 8).
type DRAM struct {
	cfg      DRAMConfig
	Stats    DRAMStats
	openRows []uint64
	rowValid []bool
	bankMask uint64
	rowShift uint
}

// NewDRAM builds a DRAM model from cfg, panicking on invalid configuration.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rowShift := uint(0)
	for 1<<rowShift != cfg.RowBytes {
		rowShift++
	}
	return &DRAM{
		cfg:      cfg,
		openRows: make([]uint64, cfg.Banks),
		rowValid: make([]bool, cfg.Banks),
		bankMask: uint64(cfg.Banks - 1),
		rowShift: rowShift,
	}
}

// Config returns the DRAM configuration.
func (d *DRAM) Config() DRAMConfig { return d.cfg }

// AccessRowHit performs one line transfer's state update and reports
// whether it hit the open row. Its latency is the row-hit or row-miss
// cycle count of Hierarchy.ClockAt, precomputed per clock so the access
// path does no float math.
func (d *DRAM) AccessRowHit(addr uint64, write bool) bool {
	if write {
		d.Stats.Writes++
	} else {
		d.Stats.Reads++
	}
	row := addr >> d.rowShift
	bank := int(row & d.bankMask)
	if d.rowValid[bank] && d.openRows[bank] == row {
		d.Stats.RowHits++
		return true
	}
	d.Stats.RowMisses++
	d.openRows[bank] = row
	d.rowValid[bank] = true
	return false
}

// Reset restores the DRAM model to its just-constructed state (all banks
// closed, statistics zeroed) without reallocating the row arrays.
func (d *DRAM) Reset() {
	d.Stats = DRAMStats{}
	clear(d.openRows)
	clear(d.rowValid)
}
