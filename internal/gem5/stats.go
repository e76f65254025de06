package gem5

import (
	"gemstone/internal/isa"
	"gemstone/internal/pmu"
)

// Stats converts the raw event record of a gem5-model run into the dotted
// statistics namespace a gem5 stats.txt would contain. The analysis layer
// (Section IV-C) consumes these names directly, so the set includes every
// statistic the paper cites: the itb_walker_cache.* group behind Cluster A,
// the branchPred.* group behind Cluster B, the icache/dcache/l2 groups,
// and the commit/fetch/iew pipeline statistics.
//
// One deliberate modelling defect lives here: the model mis-classifies VFP
// operations as SIMD-float (paper Section V), so FloatAdd/FloatMult read
// near zero and the SimdFloat* statistics absorb the FP counts.
func Stats(s *pmu.Sample) map[string]float64 {
	t := &s.Tally
	op := func(o isa.Op) float64 { return float64(t.OpCounts[o]) }
	spec := 1.0
	if t.Committed > 0 {
		spec = 1 + float64(t.WrongPathInsts)/float64(t.Committed)
	}
	secs := s.Seconds()

	m := map[string]float64{
		"sim_seconds":                 secs,
		"sim_insts":                   float64(t.Committed),
		"sim_ops":                     float64(t.Committed) * spec,
		"system.cpu.numCycles":        float64(t.Cycles),
		"system.cpu.committedInsts":   float64(t.Committed),
		"system.cpu.committedOps":     float64(t.Committed) * spec,
		"system.cpu.cpi":              safeDiv(float64(t.Cycles), float64(t.Committed)),
		"system.cpu.ipc":              safeDiv(float64(t.Committed), float64(t.Cycles)),
		"system.cpu.idleCycles":       float64(t.FetchStallCycles + t.BarrierStallCycles),
		"system.cpu.quiesceCycles":    float64(t.BarrierStallCycles),
		"system.cpu.numSquashedInsts": float64(t.WrongPathInsts),

		// Fetch stage.
		"system.cpu.fetch.Insts":                  float64(t.Committed) * spec,
		"system.cpu.fetch.Branches":               float64(s.Branch.Lookups),
		"system.cpu.fetch.predictedBranches":      float64(s.Branch.PredictedTaken + s.Branch.BTBHits),
		"system.cpu.fetch.Cycles":                 float64(t.Cycles - t.FetchStallCycles),
		"system.cpu.fetch.SquashCycles":           float64(t.BranchStallCycles),
		"system.cpu.fetch.TlbCycles":              float64(s.L2TLBI.Accesses) * 4,
		"system.cpu.fetch.IcacheStallCycles":      float64(t.FetchStallCycles),
		"system.cpu.fetch.PendingTrapStallCycles": float64(s.Hier.ITLBWalks) * 8,
		"system.cpu.fetch.rate":                   safeDiv(float64(t.Committed)*spec, float64(t.Cycles)),

		// Branch predictor.
		"system.cpu.branchPred.lookups":             float64(s.Branch.Lookups),
		"system.cpu.branchPred.condPredicted":       float64(s.Branch.CondLookups),
		"system.cpu.branchPred.condIncorrect":       float64(s.Branch.CondMispredicts),
		"system.cpu.branchPred.BTBLookups":          float64(s.Branch.BTBLookups),
		"system.cpu.branchPred.BTBHits":             float64(s.Branch.BTBHits),
		"system.cpu.branchPred.BTBHitPct":           100 * safeDiv(float64(s.Branch.BTBHits), float64(s.Branch.BTBLookups)),
		"system.cpu.branchPred.usedRAS":             float64(s.Branch.RASPops),
		"system.cpu.branchPred.RASInCorrect":        float64(s.Branch.RASIncorrect),
		"system.cpu.branchPred.indirectLookups":     float64(s.Branch.IndirectLookups),
		"system.cpu.branchPred.indirectHits":        float64(s.Branch.IndirectHits),
		"system.cpu.branchPred.indirectMisses":      float64(s.Branch.IndirectMispredicts),
		"system.cpu.branchPredindirectMispredicted": float64(s.Branch.IndirectMispredicts),
		"system.cpu.iew.predictedTakenIncorrect":    float64(s.Branch.CondMispredicts) * 0.6,
		"system.cpu.iew.predictedNotTakenIncorrect": float64(s.Branch.CondMispredicts) * 0.4,
		"system.cpu.iew.branchMispredicts":          float64(s.Branch.Mispredicts),
		"system.cpu.commit.branchMispredicts":       float64(s.Branch.Mispredicts),
		"system.cpu.commit.branches":                float64(s.Branch.Lookups),
		"system.cpu.commit.commitSquashedInsts":     float64(t.WrongPathInsts),
		"system.cpu.commit.commitNonSpecStalls":     float64(s.Hier.Barriers + s.Hier.ExclusiveStores),
		"system.cpu.commit.membars":                 op(isa.OpBarrier),
		"system.cpu.rob.rob_reads":                  float64(t.Committed) * spec * 2,
		"system.cpu.iew.exec_nop":                   op(isa.OpNop) * spec,
		"system.cpu.iew.iewExecutedInsts":           float64(t.Committed) * spec,
		"system.cpu.iew.memOrderViolationEvents":    float64(t.StrexRetries),
		"system.cpu.iew.lsqFullEvents":              float64(t.MemStallCycles) / 8,
		"system.cpu.iq.fu_full::MemRead":            float64(t.MemStallCycles) / 16,
		"system.cpu.iq.rate":                        safeDiv(float64(t.Committed)*spec, float64(t.Cycles)),

		// Functional-unit classification. The VFP->SIMD misclassification:
		// FP ops land in the SimdFloat* statistics.
		"system.cpu.iq.FU_type::IntAlu":        op(isa.OpIntALU) * spec,
		"system.cpu.iq.FU_type::IntMult":       op(isa.OpIntMul) * spec,
		"system.cpu.iq.FU_type::IntDiv":        op(isa.OpIntDiv) * spec,
		"system.cpu.iq.FU_type::FloatAdd":      0,
		"system.cpu.iq.FU_type::FloatMult":     0,
		"system.cpu.iq.FU_type::FloatDiv":      0,
		"system.cpu.iq.FU_type::SimdFloatAdd":  op(isa.OpFPAdd) * spec,
		"system.cpu.iq.FU_type::SimdFloatMult": op(isa.OpFPMul) * spec,
		"system.cpu.iq.FU_type::SimdFloatDiv":  op(isa.OpFPDiv) * spec,
		"system.cpu.iq.FU_type::SimdAlu":       op(isa.OpSIMD) * spec,
		"system.cpu.iq.FU_type::MemRead":       (op(isa.OpLoad) + op(isa.OpLoadEx)) * spec,
		"system.cpu.iq.FU_type::MemWrite":      (op(isa.OpStore) + op(isa.OpStoreEx)) * spec,

		// L1 instruction TLB ("itb") and its walker cache — the Cluster A
		// statistics of Section IV-C.
		"system.cpu.itb.accesses":                      float64(s.ITLB.Accesses + s.ITLB.SpecProbes),
		"system.cpu.itb.hits":                          float64(s.ITLB.Hits()),
		"system.cpu.itb.misses":                        float64(s.ITLB.Misses),
		"system.cpu.itb.flushes":                       float64(s.ITLB.Flushes),
		"system.cpu.itb.walks":                         float64(s.Hier.ITLBWalks),
		"system.cpu.itb_walker_cache.overall_accesses": float64(s.L2TLBI.Accesses),
		"system.cpu.itb_walker_cache.overall_hits":     float64(s.L2TLBI.Hits()),
		"system.cpu.itb_walker_cache.overall_misses":   float64(s.L2TLBI.Misses),
		"system.cpu.itb_walker_cache.ReadReq_accesses": float64(s.L2TLBI.Accesses),
		"system.cpu.itb_walker_cache.ReadReq_hits":     float64(s.L2TLBI.Hits()),
		"system.cpu.itb_walker_cache.ReadReq_misses":   float64(s.L2TLBI.Misses),
		"system.cpu.itb_walker_cache.overall_miss_rate": safeDiv(
			float64(s.L2TLBI.Misses), float64(s.L2TLBI.Accesses)),
		"system.cpu.itb_walker_cache.tags.data_accesses": float64(s.L2TLBI.Accesses) * 8,
		"system.cpu.itb_walker_cache.replacements":       float64(s.L2TLBI.Refills),

		// L1 data TLB and walker cache.
		"system.cpu.dtb.accesses":                      float64(s.DTLB.Accesses),
		"system.cpu.dtb.hits":                          float64(s.DTLB.Hits()),
		"system.cpu.dtb.misses":                        float64(s.DTLB.Misses),
		"system.cpu.dtb.walks":                         float64(s.Hier.DTLBWalks),
		"system.cpu.dtb.prefetch_faults":               float64(s.DTLB.Misses) * 0.1,
		"system.cpu.dtb_walker_cache.overall_accesses": float64(s.L2TLBD.Accesses),
		"system.cpu.dtb_walker_cache.overall_hits":     float64(s.L2TLBD.Hits()),
		"system.cpu.dtb_walker_cache.overall_misses":   float64(s.L2TLBD.Misses),
		"system.cpu.dtb_walker_cache.ReadReq_accesses": float64(s.L2TLBD.Accesses),
		"system.cpu.dtb_walker_cache.ReadReq_hits":     float64(s.L2TLBD.Hits()),
		"system.cpu.dtb_walker_cache.ReadReq_misses":   float64(s.L2TLBD.Misses),

		// L1 instruction cache.
		"system.cpu.icache.overall_accesses": float64(s.L1I.Accesses()),
		"system.cpu.icache.overall_hits":     float64(s.L1I.Accesses() - s.L1I.Misses()),
		"system.cpu.icache.overall_misses":   float64(s.L1I.Misses()),
		"system.cpu.icache.overall_miss_rate": safeDiv(
			float64(s.L1I.Misses()), float64(s.L1I.Accesses())),
		"system.cpu.icache.replacements": float64(s.L1I.Refills()),

		// L1 data cache.
		"system.cpu.dcache.overall_accesses":  float64(s.L1D.Accesses()),
		"system.cpu.dcache.overall_misses":    float64(s.L1D.Misses()),
		"system.cpu.dcache.ReadReq_accesses":  float64(s.L1D.ReadAccesses),
		"system.cpu.dcache.ReadReq_hits":      float64(s.L1D.ReadAccesses - s.L1D.ReadMisses),
		"system.cpu.dcache.ReadReq_misses":    float64(s.L1D.ReadMisses),
		"system.cpu.dcache.WriteReq_accesses": float64(s.L1D.WriteAccesses),
		"system.cpu.dcache.WriteReq_hits":     float64(s.L1D.WriteAccesses - s.L1D.WriteMisses),
		"system.cpu.dcache.WriteReq_misses":   float64(s.L1D.WriteMisses),
		"system.cpu.dcache.writebacks":        float64(s.L1D.Writebacks),
		"system.cpu.dcache.WriteReq_mshr_misses": float64(
			s.L1D.WriteMisses),
		"system.cpu.dcache.ReadReq_mshr_misses": float64(s.L1D.ReadMisses),
		"system.cpu.dcache.overall_mshr_misses": float64(s.L1D.Misses()),
		"system.cpu.dcache.prefetcher.issued":   float64(s.L1D.Prefetches),
		"system.cpu.dcache.prefetcher.used":     float64(s.L1D.PrefetchHits),
		"system.cpu.dcache.snoops":              float64(s.Hier.Snoops),
		"system.cpu.dcache.snoop_invalidates":   float64(s.L1D.Invalidations),
		"system.cpu.dcache.uncacheable_latency": float64(s.Hier.Barriers) * 30,
		"system.cpu.dcache.avg_blocked_cycles":  safeDiv(float64(t.MemStallCycles), float64(s.L1D.Misses())),

		// Shared L2.
		"system.l2.overall_accesses":    float64(s.L2.Accesses()),
		"system.l2.overall_hits":        float64(s.L2.Accesses() - s.L2.Misses()),
		"system.l2.overall_misses":      float64(s.L2.Misses()),
		"system.l2.overall_miss_rate":   safeDiv(float64(s.L2.Misses()), float64(s.L2.Accesses())),
		"system.l2.ReadReq_accesses":    float64(s.L2.ReadAccesses),
		"system.l2.ReadReq_misses":      float64(s.L2.ReadMisses),
		"system.l2.ReadExReq_accesses":  float64(s.L2.WriteAccesses),
		"system.l2.ReadExReq_hits":      float64(s.L2.WriteAccesses - s.L2.WriteMisses),
		"system.l2.ReadExReq_misses":    float64(s.L2.WriteMisses),
		"system.l2.writebacks":          float64(s.L2.Writebacks),
		"system.l2.overall_mshr_misses": float64(s.L2.Misses()),
		"system.l2.prefetcher.issued":   float64(s.L2.Prefetches),
		"system.l2.prefetcher.used":     float64(s.L2.PrefetchHits),
		"system.l2.overall_avg_miss_latency": safeDiv(
			float64(t.MemStallCycles), float64(s.L2.Misses())),

		// Memory controller.
		"system.mem_ctrls.readReqs":    float64(s.DRAM.Reads),
		"system.mem_ctrls.writeReqs":   float64(s.DRAM.Writes),
		"system.mem_ctrls.pageHitRate": safeDiv(float64(s.DRAM.RowHits), float64(s.DRAM.Accesses())),
		"system.mem_ctrls.bytesRead":   float64(s.DRAM.Reads) * 64,
		"system.mem_ctrls.bytesWritten": float64(
			s.DRAM.Writes) * 64,

		// Memory-order / synchronisation.
		"system.cpu.num_mem_refs":      float64(s.L1D.Accesses()),
		"system.cpu.num_load_insts":    op(isa.OpLoad) + op(isa.OpLoadEx),
		"system.cpu.num_store_insts":   op(isa.OpStore) + op(isa.OpStoreEx),
		"system.cpu.ldrex_count":       float64(s.Hier.ExclusiveLoads),
		"system.cpu.strex_pass_count":  float64(s.Hier.ExclusivePasses),
		"system.cpu.strex_fail_count":  float64(s.Hier.ExclusiveFails),
		"system.cpu.dcache.writeClean": float64(s.Hier.MergedStores),
	}
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
