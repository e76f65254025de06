package workload

import "fmt"

// Suites. The names mirror the paper's benchmark sources; prefixes match
// the labels of Fig. 3 (mi-, par-, parsec-).
const (
	SuiteMiBench    = "mibench"
	SuiteParMiBench = "parmibench"
	SuiteParsec     = "parsec"
	SuiteClassic    = "classic"
	SuiteLongbottom = "longbottom"
	SuiteLMBench    = "lmbench"
)

// base returns the common starting profile; each workload overrides the
// axes that define its behaviour.
func base(name, suite string) Profile {
	return Profile{
		Name: name, Suite: suite, Threads: 1,
		TotalInsts: 240_000,
		LoopIters:  50, BodyBlocks: 6, BlockLen: 10, CodeBlocks: 48,
		CondFraction: 0.35, CondBias: 0.8, CondEntropy: false,
		CallFraction: 0.10, IndirectFraction: 0.02, IndirectTargets: 4,
		LoadFraction: 0.22, StoreFraction: 0.10,
		IntMulFraction: 0.02, NopFraction: 0.01,
		WorkingSetBytes: 64 << 10,
		StreamBytes:     64 << 10,
		StrideBytes:     256,
		PatternWeights:  [4]float64{0.7, 0.2, 0.1, 0},
		DepDistance:     4,
		CodeSpreadBytes: 3072,
	}
}

// parallel marks a profile as a 4-thread run with PARSEC-style
// synchronisation (lock-protected queues, pipeline hand-offs, barriers).
// Data-parallel kernels with coarse partitioning (most of ParMiBench)
// override these rates downwards.
func parallel(p Profile) Profile {
	p.Threads = 4
	p.BarrierPer1K = 1.5
	p.ExclusivePer1K = 6
	p.SnoopProb = 0.018
	p.StrexFailProb = 0.2
	p.BarrierWaitMean = 500
	return p
}

// buildSuite constructs the full 65-workload suite: 45 validation
// workloads (Experiment 1/2) plus 20 power-characterisation workloads
// (Experiments 3/4). Definitions are data; the behaviours they encode are
// described per family below.
func buildSuite() []Profile {
	var ps []Profile
	add := func(p Profile) { ps = append(ps, p) }

	// ---------------------------------------------------------------- //
	// MiBench: small embedded kernels — predictable loops, small code,
	// small-to-medium data. 17 workloads.
	// ---------------------------------------------------------------- //
	{
		p := base("mi-qsort", SuiteMiBench)
		p.CondEntropy, p.CondBias, p.CondFraction = true, 0.55, 0.45
		p.WorkingSetBytes = 256 << 10
		p.LoadFraction, p.StoreFraction = 0.28, 0.12
		p.CallFraction = 0.15
		add(p)
	}
	{
		p := base("mi-dijkstra", SuiteMiBench)
		p.PatternWeights = [4]float64{0.3, 0, 0, 0.7}
		p.ChaseBytes = 512 << 10
		p.CondEntropy, p.CondBias = true, 0.6
		add(p)
	}
	{
		p := base("mi-patricia", SuiteMiBench)
		p.PatternWeights = [4]float64{0.2, 0, 0, 0.8}
		p.ChaseBytes = 1 << 20
		p.CondEntropy, p.CondBias, p.CondFraction = true, 0.5, 0.5
		p.CallFraction = 0.2
		add(p)
	}
	{
		p := base("mi-stringsearch", SuiteMiBench)
		p.BlockLen = 5
		p.CondEntropy, p.CondBias, p.CondFraction = true, 0.85, 0.55
		p.LoadFraction = 0.30
		p.WorkingSetBytes = 128 << 10
		p.UnalignedFraction = 0.06
		add(p)
	}
	{
		p := base("mi-blowfish", SuiteMiBench)
		p.LoopIters, p.BodyBlocks = 200, 2
		p.CondFraction = 0.1
		p.PatternWeights = [4]float64{0.3, 0.7, 0, 0}
		p.LoadFraction, p.StoreFraction = 0.25, 0.12
		p.DepDistance = 3
		add(p)
	}
	{
		p := base("mi-sha", SuiteMiBench)
		p.LoopIters, p.BodyBlocks = 150, 2
		p.CondFraction = 0.08
		p.PatternWeights = [4]float64{0.2, 0.8, 0, 0}
		p.LoadFraction, p.StoreFraction = 0.2, 0.08
		p.DepDistance = 2
		add(p)
	}
	{
		p := base("mi-crc32", SuiteMiBench)
		p.LoopIters, p.BodyBlocks, p.BlockLen, p.CodeBlocks = 400, 1, 4, 4
		p.CondFraction, p.CallFraction, p.IndirectFraction = 0, 0, 0
		p.PatternWeights = [4]float64{0, 1, 0, 0}
		p.StreamBytes = 1 << 20
		p.LoadFraction = 0.35
		p.DepDistance = 2
		add(p)
	}
	{
		p := base("mi-jpeg-c", SuiteMiBench)
		p.SIMDFraction = 0.20
		p.PatternWeights = [4]float64{0.2, 0.4, 0.4, 0}
		p.StrideBytes = 512
		p.WorkingSetBytes = 512 << 10
		add(p)
	}
	{
		p := base("mi-jpeg-d", SuiteMiBench)
		p.SIMDFraction = 0.18
		p.StoreStreamShare = 0.9
		p.StoreScatterBytes = 8 << 10
		p.StoreFraction = 0.2
		p.PatternWeights = [4]float64{0.9, 0.1, 0, 0}
		p.StreamBytes = 1 << 20
		p.WorkingSetBytes = 64 << 10
		add(p)
	}
	{
		p := base("mi-susan-s", SuiteMiBench)
		p.FPAddFraction, p.FPMulFraction = 0.15, 0.10
		p.PatternWeights = [4]float64{0.3, 0.3, 0.4, 0}
		p.WorkingSetBytes = 512 << 10
		add(p)
	}
	{
		p := base("mi-susan-e", SuiteMiBench)
		p.FPAddFraction, p.FPMulFraction = 0.12, 0.08
		p.CondEntropy, p.CondBias, p.CondFraction = true, 0.7, 0.45
		p.WorkingSetBytes = 384 << 10
		add(p)
	}
	{
		p := base("mi-susan-c", SuiteMiBench)
		p.FPAddFraction = 0.10
		p.CondBias, p.CondFraction = 0.9, 0.4
		p.WorkingSetBytes = 384 << 10
		add(p)
	}
	{
		p := base("mi-fft", SuiteMiBench)
		p.FPAddFraction, p.FPMulFraction = 0.18, 0.18
		p.PatternWeights = [4]float64{0.2, 0.2, 0.6, 0}
		p.StrideBytes = 1024
		p.WorkingSetBytes = 1 << 20
		p.LoopIters = 80
		add(p)
	}
	{
		p := base("mi-fft-inv", SuiteMiBench)
		p.FPAddFraction, p.FPMulFraction = 0.18, 0.17
		p.PatternWeights = [4]float64{0.2, 0.25, 0.55, 0}
		p.StrideBytes = 1024
		p.WorkingSetBytes = 1 << 20
		p.LoopIters = 80
		add(p)
	}
	{
		p := base("mi-adpcm-c", SuiteMiBench)
		p.LoopIters, p.BodyBlocks, p.BlockLen = 250, 1, 8
		p.CondFraction = 0.2
		p.PatternWeights = [4]float64{0.1, 0.9, 0, 0}
		p.LoadFraction = 0.3
		p.StreamBytes = 2 << 20
		p.DepDistance = 2
		add(p)
	}
	{
		p := base("mi-adpcm-d", SuiteMiBench)
		p.LoopIters, p.BodyBlocks, p.BlockLen = 250, 1, 8
		p.CondFraction = 0.2
		p.StoreStreamShare = 0.95
		p.StoreScatterBytes = 4 << 10
		p.StoreFraction = 0.25
		p.PatternWeights = [4]float64{1, 0, 0, 0}
		p.WorkingSetBytes = 16 << 10
		p.StreamBytes = 2 << 20
		p.DepDistance = 2
		add(p)
	}
	{
		p := base("mi-gsm-c", SuiteMiBench)
		p.IntMulFraction = 0.12
		p.PatternWeights = [4]float64{0.2, 0.8, 0, 0}
		p.StreamBytes = 512 << 10
		p.LoopIters = 120
		add(p)
	}

	// ---------------------------------------------------------------- //
	// ParMiBench: 4-thread embedded kernels with synchronisation. The
	// star is par-basicmath-rad2deg: an extremely regular tiny FP loop
	// (hardware BP accuracy 99.9%, gem5-v1 accuracy < 1% per the paper).
	// 8 workloads.
	// ---------------------------------------------------------------- //
	{
		p := parallel(base("par-basicmath-rad2deg", SuiteParMiBench))
		p.LoopIters, p.BodyBlocks, p.BlockLen, p.CodeBlocks = 2000, 1, 8, 2
		p.CondFraction, p.CallFraction, p.IndirectFraction = 0, 0, 0
		p.FPAddFraction, p.FPMulFraction, p.FPDivFraction = 0.25, 0.15, 0.06
		p.LoadFraction, p.StoreFraction = 0.08, 0.04
		p.WorkingSetBytes = 16 << 10
		p.BarrierPer1K, p.ExclusivePer1K = 0.05, 0.1
		add(p)
	}
	{
		p := parallel(base("par-basicmath-cubic", SuiteParMiBench))
		p.LoopIters, p.BodyBlocks, p.BlockLen, p.CodeBlocks = 500, 2, 8, 4
		p.CondFraction = 0.1
		p.BarrierPer1K, p.ExclusivePer1K, p.SnoopProb = 0.2, 0.3, 0.002
		p.FPAddFraction, p.FPMulFraction, p.FPDivFraction = 0.2, 0.15, 0.08
		p.WorkingSetBytes = 32 << 10
		add(p)
	}
	{
		p := parallel(base("par-bitcount", SuiteParMiBench))
		p.LoopIters, p.BodyBlocks, p.BlockLen, p.CodeBlocks = 300, 1, 6, 8
		p.CondFraction = 0.15
		p.BarrierPer1K, p.ExclusivePer1K, p.SnoopProb = 0.1, 0.2, 0.001
		p.LoadFraction, p.StoreFraction = 0.1, 0.02
		p.WorkingSetBytes = 16 << 10
		p.DepDistance = 2
		add(p)
	}
	{
		p := parallel(base("par-susan-e", SuiteParMiBench))
		p.FPAddFraction, p.FPMulFraction = 0.12, 0.08
		p.CondEntropy, p.CondBias = true, 0.7
		p.WorkingSetBytes = 512 << 10
		p.BarrierPer1K, p.ExclusivePer1K = 0.8, 1
		add(p)
	}
	{
		p := parallel(base("par-dijkstra", SuiteParMiBench))
		p.PatternWeights = [4]float64{0.3, 0, 0, 0.7}
		p.ChaseBytes = 1 << 20
		p.CondEntropy, p.CondBias = true, 0.6
		p.ExclusivePer1K = 2
		p.SnoopProb = 0.008
		add(p)
	}
	{
		p := parallel(base("par-patricia", SuiteParMiBench))
		p.PatternWeights = [4]float64{0.2, 0, 0, 0.8}
		p.ChaseBytes = 2 << 20
		p.CondEntropy, p.CondBias, p.CondFraction = true, 0.5, 0.5
		p.ExclusivePer1K = 2
		p.SnoopProb = 0.008
		add(p)
	}
	{
		p := parallel(base("par-stringsearch", SuiteParMiBench))
		p.BarrierPer1K, p.ExclusivePer1K, p.SnoopProb = 0.1, 0.3, 0.002
		p.BlockLen = 5
		p.CondEntropy, p.CondBias, p.CondFraction = true, 0.85, 0.55
		p.LoadFraction = 0.3
		p.UnalignedFraction = 0.08
		add(p)
	}
	{
		p := parallel(base("par-sha", SuiteParMiBench))
		p.LoopIters, p.BodyBlocks = 150, 2
		p.CondFraction = 0.08
		p.PatternWeights = [4]float64{0.2, 0.8, 0, 0}
		p.DepDistance = 2
		p.BarrierPer1K, p.ExclusivePer1K, p.SnoopProb = 0.3, 0.3, 0.002
		add(p)
	}

	// ---------------------------------------------------------------- //
	// PARSEC: nine applications, single-threaded and 4-thread variants.
	// Larger code and data footprints; the -4 variants add contention.
	// 18 workloads.
	// ---------------------------------------------------------------- //
	parsecApps := []Profile{}
	{
		p := base("parsec-blackscholes", SuiteParsec)
		p.FPAddFraction, p.FPMulFraction, p.FPDivFraction = 0.18, 0.15, 0.04
		p.LoopIters = 120
		p.WorkingSetBytes = 256 << 10
		parsecApps = append(parsecApps, p)
	}
	{
		p := base("parsec-bodytrack", SuiteParsec)
		p.FPAddFraction, p.FPMulFraction = 0.1, 0.08
		p.CondStatic, p.CondBias, p.CondFraction = true, 0.7, 0.4
		p.WorkingSetBytes = 1 << 20
		p.CodeBlocks, p.BodyBlocks, p.LoopIters = 2400, 2400, 8
		p.CallFraction = 0.18
		parsecApps = append(parsecApps, p)
	}
	{
		p := base("parsec-canneal", SuiteParsec)
		p.PatternWeights = [4]float64{0.25, 0, 0, 0.75}
		p.ChaseBytes = 8 << 20
		p.CondEntropy, p.CondBias = true, 0.55
		p.WorkingSetBytes = 4 << 20
		parsecApps = append(parsecApps, p)
	}
	{
		p := base("parsec-dedup", SuiteParsec)
		p.StoreStreamShare = 0.9
		p.StoreScatterBytes = 32 << 10
		p.StoreFraction, p.LoadFraction = 0.18, 0.22
		p.IntMulFraction = 0.08
		p.StreamBytes = 4 << 20
		p.WorkingSetBytes = 2 << 20
		parsecApps = append(parsecApps, p)
	}
	{
		p := base("parsec-fluidanimate", SuiteParsec)
		p.FPAddFraction, p.FPMulFraction = 0.16, 0.12
		p.PatternWeights = [4]float64{0.3, 0.2, 0.5, 0}
		p.StrideBytes = 320
		p.WorkingSetBytes = 2 << 20
		parsecApps = append(parsecApps, p)
	}
	{
		p := base("parsec-freqmine", SuiteParsec)
		p.PatternWeights = [4]float64{0.4, 0, 0, 0.6}
		p.ChaseBytes = 2 << 20
		p.CondStatic, p.CondBias, p.CondFraction = true, 0.6, 0.45
		p.CodeBlocks, p.BodyBlocks, p.LoopIters, p.BlockLen = 3200, 3200, 6, 8
		p.CallFraction = 0.2
		parsecApps = append(parsecApps, p)
	}
	{
		p := base("parsec-streamcluster", SuiteParsec)
		p.FPAddFraction, p.FPMulFraction = 0.15, 0.1
		p.PatternWeights = [4]float64{0.1, 0.85, 0.05, 0}
		p.StoreStreamShare = 0.85
		p.StoreScatterBytes = 32 << 10
		p.StreamBytes = 4 << 20
		p.LoadFraction = 0.3
		p.LoopIters = 150
		parsecApps = append(parsecApps, p)
	}
	{
		p := base("parsec-swaptions", SuiteParsec)
		p.FPAddFraction, p.FPMulFraction, p.FPDivFraction = 0.15, 0.14, 0.06
		p.WorkingSetBytes = 64 << 10
		p.LoopIters = 100
		parsecApps = append(parsecApps, p)
	}
	{
		p := base("parsec-x264", SuiteParsec)
		p.SIMDFraction = 0.28
		p.PatternWeights = [4]float64{0.2, 0.5, 0.3, 0}
		p.StoreStreamShare = 0.8
		p.StoreScatterBytes = 64 << 10
		p.StreamBytes = 2 << 20
		p.WorkingSetBytes = 1 << 20
		p.CondStatic, p.CondBias = true, 0.75
		p.CodeBlocks, p.BodyBlocks, p.LoopIters = 4000, 4000, 5
		p.CallFraction, p.IndirectFraction = 0.15, 0.06
		p.IndirectTargets = 8
		parsecApps = append(parsecApps, p)
	}
	for _, app := range parsecApps {
		one := app
		one.Name = app.Name + "-1"
		add(one)
		four := parallel(app)
		four.Name = app.Name + "-4"
		add(four)
	}

	// ---------------------------------------------------------------- //
	// Classics: Dhrystone and Whetstone. 2 workloads.
	// ---------------------------------------------------------------- //
	{
		p := base("dhrystone", SuiteClassic)
		p.LoopIters, p.BodyBlocks, p.CodeBlocks = 100, 4, 12
		p.CondFraction, p.CallFraction = 0.3, 0.25
		p.LoadFraction, p.StoreFraction = 0.2, 0.12
		p.WorkingSetBytes = 8 << 10
		add(p)
	}
	{
		p := base("whetstone", SuiteClassic)
		p.LoopIters, p.BodyBlocks, p.CodeBlocks = 200, 2, 8
		p.FPAddFraction, p.FPMulFraction, p.FPDivFraction = 0.25, 0.2, 0.05
		p.CondFraction = 0.05
		p.CallFraction = 0.15
		p.WorkingSetBytes = 16 << 10
		add(p)
	}

	// ---------------------------------------------------------------- //
	// Power-characterisation extras (Roy Longbottom collection and
	// LMbench-style kernels): single-component stressors that give the
	// power-model training set its dynamic range. 20 workloads.
	// ---------------------------------------------------------------- //
	stressor := func(name string) Profile {
		p := base(name, SuiteLongbottom)
		p.TotalInsts = 180_000
		p.LoopIters, p.BodyBlocks, p.BlockLen, p.CodeBlocks = 500, 1, 12, 2
		p.CondFraction, p.CallFraction, p.IndirectFraction = 0, 0, 0
		p.LoadFraction, p.StoreFraction = 0, 0
		p.IntMulFraction, p.NopFraction = 0, 0
		p.WorkingSetBytes = 16 << 10
		p.DepDistance = 6
		return p
	}
	{
		p := stressor("long-int-alu")
		add(p)
	}
	{
		p := stressor("long-int-mul")
		p.IntMulFraction = 0.7
		add(p)
	}
	{
		p := stressor("long-int-div")
		p.IntDivFraction = 0.5
		add(p)
	}
	{
		p := stressor("long-fp-add")
		p.FPAddFraction = 0.8
		add(p)
	}
	{
		p := stressor("long-fp-mul")
		p.FPMulFraction = 0.8
		add(p)
	}
	{
		p := stressor("long-fp-div")
		p.FPDivFraction = 0.5
		add(p)
	}
	{
		p := stressor("long-simd")
		p.SIMDFraction = 0.8
		add(p)
	}
	{
		p := stressor("long-mem-l1")
		p.LoadFraction = 0.5
		p.WorkingSetBytes = 16 << 10
		add(p)
	}
	{
		p := stressor("long-mem-l2")
		p.LoadFraction = 0.5
		p.WorkingSetBytes = 256 << 10
		add(p)
	}
	{
		p := stressor("long-mem-dram")
		p.LoadFraction = 0.5
		p.WorkingSetBytes = 8 << 20
		add(p)
	}
	{
		p := stressor("long-stream-rd")
		p.LoadFraction = 0.5
		p.PatternWeights = [4]float64{0, 1, 0, 0}
		p.StreamBytes = 4 << 20
		add(p)
	}
	{
		p := stressor("long-stream-wr")
		p.StoreFraction = 0.5
		p.StoreStreamShare = 1
		p.StreamBytes = 4 << 20
		add(p)
	}
	{
		p := stressor("long-chase-dram")
		p.LoadFraction = 0.4
		p.PatternWeights = [4]float64{0, 0, 0, 1}
		p.ChaseBytes = 16 << 20
		add(p)
	}
	{
		p := stressor("long-mm")
		p.FPMulFraction, p.FPAddFraction = 0.3, 0.2
		p.LoadFraction, p.StoreFraction = 0.25, 0.05
		p.PatternWeights = [4]float64{0.1, 0.4, 0.5, 0}
		p.StrideBytes = 2048
		p.WorkingSetBytes = 2 << 20
		add(p)
	}
	{
		p := base("long-dhry", SuiteLongbottom)
		p.TotalInsts = 180_000
		p.LoopIters, p.BodyBlocks, p.CodeBlocks = 150, 4, 12
		p.CondFraction, p.CallFraction = 0.3, 0.25
		p.WorkingSetBytes = 8 << 10
		add(p)
	}
	{
		p := base("long-whet", SuiteLongbottom)
		p.TotalInsts = 180_000
		p.FPAddFraction, p.FPMulFraction, p.FPDivFraction = 0.25, 0.2, 0.05
		p.CondFraction = 0.05
		p.WorkingSetBytes = 16 << 10
		add(p)
	}
	{
		p := base("long-linpack", SuiteLongbottom)
		p.TotalInsts = 180_000
		p.FPAddFraction, p.FPMulFraction = 0.22, 0.22
		p.PatternWeights = [4]float64{0.1, 0.7, 0.2, 0}
		p.StreamBytes = 2 << 20
		p.LoadFraction = 0.28
		add(p)
	}
	{
		p := base("long-livermore", SuiteLongbottom)
		p.TotalInsts = 180_000
		p.FPAddFraction, p.FPMulFraction = 0.2, 0.15
		p.PatternWeights = [4]float64{0.2, 0.3, 0.5, 0}
		p.StrideBytes = 512
		p.WorkingSetBytes = 1 << 20
		add(p)
	}
	{
		p := base("long-branch-rand", SuiteLMBench)
		p.TotalInsts = 180_000
		p.BlockLen = 4
		p.CondEntropy, p.CondBias, p.CondFraction = true, 0.5, 0.8
		p.WorkingSetBytes = 32 << 10
		add(p)
	}
	{
		p := base("long-nop", SuiteLMBench)
		p.TotalInsts = 180_000
		p.NopFraction = 0.7
		p.LoadFraction, p.StoreFraction = 0.02, 0.01
		p.CondFraction = 0.05
		p.WorkingSetBytes = 4 << 10
		add(p)
	}

	return ps
}

var suite = buildSuite()

// All returns every workload (the 65-workload power/characterisation set).
// The returned slice is a copy; profiles are values and safe to mutate.
func All() []Profile {
	out := make([]Profile, len(suite))
	copy(out, suite)
	return out
}

// Validation returns the 45 workloads used to validate the gem5 models
// (Experiment 1/2): everything except the power-characterisation extras.
func Validation() []Profile {
	var out []Profile
	for _, p := range suite {
		if p.Suite != SuiteLongbottom && p.Suite != SuiteLMBench {
			out = append(out, p)
		}
	}
	return out
}

// ByName looks up a workload profile.
func ByName(name string) (Profile, error) {
	for _, p := range suite {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown workload %q", name)
}
