package platform_test

import (
	"reflect"
	"testing"

	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

// fuzzInsts bounds one fuzz execution's instruction budget, as in
// workload.FuzzGenerator.
const fuzzInsts = 50_000

// FuzzRunSweep drives the sweep lanes with arbitrary workload profiles
// (workload.FuzzGenerator's parameters) and asserts that every
// Measurement of a sweep equals a fresh Platform.Run of its point. pick
// selects the platform, a parallel (contention-modelling) variant, and
// two or three DVFS points per cluster in scrambled order. Every lane
// reads each access's whole mem.Latency from its phase-A event, so an
// access with a large fixed part or many DRAM accesses on its critical
// path must still time correctly on every lane.
func FuzzRunSweep(f *testing.F) {
	for i, name := range []string{"dhrystone", "parsec-canneal-4", "lm-lat-mem-rd"} {
		if p, err := workload.ByName(name); err == nil {
			f.Add(p.TotalInsts, p.LoopIters, p.BodyBlocks, p.BlockLen, p.CodeBlocks,
				p.WorkingSetBytes, p.StreamBytes, p.ChaseBytes, p.StrideBytes,
				p.CondFraction, p.PatternWeights[int(workload.PatternChase)], p.IndirectTargets, uint16(i*0x1235))
		}
	}
	platforms := []*platform.Platform{hw.Platform(), gem5.Platform(gem5.V1)}

	f.Fuzz(func(t *testing.T, totalInsts, loopIters, bodyBlocks, blockLen, codeBlocks,
		wset, stream, chase, stride int, condFrac, chaseWeight float64, indirect int, pick uint16) {
		p := workload.Profile{
			Name:             "fuzz",
			Suite:            "fuzz",
			Threads:          1,
			TotalInsts:       min(totalInsts, fuzzInsts),
			LoopIters:        loopIters,
			BodyBlocks:       bodyBlocks,
			BlockLen:         blockLen,
			CodeBlocks:       codeBlocks,
			CondFraction:     condFrac,
			CondBias:         0.5,
			IndirectFraction: 0.1,
			IndirectTargets:  indirect,
			CallFraction:     0.1,
			LoadFraction:     0.3,
			StoreFraction:    0.1,
			WorkingSetBytes:  wset,
			StreamBytes:      stream,
			ChaseBytes:       chase,
			StrideBytes:      stride,
			PatternWeights:   [4]float64{1, 0.5, 0.25, chaseWeight},
			DepDistance:      3,
		}
		if pick&1 != 0 {
			p.Threads = 4
			p.SnoopProb, p.BarrierWaitMean, p.StrexFailProb = 0.05, 40, 0.2
			p.BarrierPer1K, p.ExclusivePer1K = 5, 10
		}
		if err := p.Validate(); err != nil {
			return // invalid profiles are rejected before any run
		}
		pl := platforms[int(pick>>1&1)]
		sc := platform.NewSimContext(pl)
		for ci, cl := range pl.Config().Clusters {
			// Two or three distinct points, picked and ordered by pick.
			fs := cl.Frequencies()
			n := 2 + int(pick>>(2+ci)&1)
			var freqs []int
			for k := 0; len(freqs) < n && k < len(fs); k++ {
				freqs = append(freqs, fs[(int(pick>>4)+k*7)%len(fs)])
			}
			got, err := sc.RunSweep(p, cl.Name, freqs, platform.FidelityDetailed, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range freqs {
				want, err := pl.Run(p, cl.Name, f)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("%s/%s@%dMHz: sweep lane differs from a fresh run\ngot:  %+v\nwant: %+v", pl.Name(), cl.Name, f, got[i], want)
				}
			}
		}
	})
}
