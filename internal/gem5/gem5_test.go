package gem5

import (
	"strings"
	"testing"

	"gemstone/internal/hw"
	"gemstone/internal/workload"
)

func TestVersionString(t *testing.T) {
	if V1.String() != "v1" || V2.String() != "v2" {
		t.Fatal("version strings")
	}
}

func TestVersionSet(t *testing.T) {
	var v Version
	for in, want := range map[string]Version{"1": V1, "2": V2} {
		if err := v.Set(in); err != nil || v != want {
			t.Fatalf("Set(%q) = %v, %v; want %v", in, v, err, want)
		}
	}
	for _, in := range []string{"0", "3", "-1", "v2", ""} {
		if err := v.Set(in); err == nil {
			t.Fatalf("Set(%q) accepted", in)
		}
	}
}

func TestConfigurationsValid(t *testing.T) {
	for _, v := range []Version{V1, V2} {
		p := Platform(v)
		if err := p.Config().Validate(); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if p.Config().HasSensors {
			t.Fatal("gem5 platforms must not have power sensors")
		}
	}
}

func TestDocumentedDefectsPresent(t *testing.T) {
	big := BigCluster(V1)
	ref := hw.A15Cluster()

	if big.Hier.ITLB.Entries != 2*ref.Hier.ITLB.Entries {
		t.Fatalf("model ITLB %d vs HW %d: want 64 vs 32", big.Hier.ITLB.Entries, ref.Hier.ITLB.Entries)
	}
	if big.Hier.UnifiedL2TLB {
		t.Fatal("model must use split walker caches")
	}
	if !ref.Hier.UnifiedL2TLB {
		t.Fatal("hardware must use a unified L2 TLB")
	}
	if big.Hier.L2TLBI.LatencyCycles <= ref.Hier.L2TLB.LatencyCycles {
		t.Fatal("model walker-cache latency must exceed the HW L2 TLB latency")
	}
	if big.Hier.DRAM.RowMissNs >= ref.Hier.DRAM.RowMissNs {
		t.Fatal("model DRAM latency must be below hardware (Fig. 4)")
	}
	if big.Hier.StreamingStoreMerge {
		t.Fatal("model must lack the merging write buffer")
	}
	if !big.Core.FetchPerInstruction {
		t.Fatal("model must fetch per instruction")
	}
	if !big.Branch.BugSkewedUpdate {
		t.Fatal("v1 must carry the BP bug")
	}
	if BigCluster(V2).Branch.BugSkewedUpdate {
		t.Fatal("v2 must not carry the BP bug")
	}

	little := LITTLECluster(V1)
	if little.Hier.L2.LatencyCycles <= hw.A7Cluster().Hier.L2.LatencyCycles {
		t.Fatal("LITTLE model L2 latency must exceed hardware (Fig. 4)")
	}
	if little.Branch.BugSkewedUpdate {
		t.Fatal("the LITTLE model predictor is not affected by the bug")
	}
}

func TestStatsEmission(t *testing.T) {
	p := Platform(V1)
	prof, err := workload.ByName("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Run(prof, hw.ClusterA15, 1000)
	if err != nil {
		t.Fatal(err)
	}
	stats := Stats(&m.Sample)
	if len(stats) < 100 {
		t.Fatalf("gem5 stats map has %d entries, want >= 100", len(stats))
	}
	// The statistics the paper cites must exist.
	for _, name := range []string{
		"sim_seconds", "sim_insts",
		"system.cpu.numCycles",
		"system.cpu.branchPred.condIncorrect",
		"system.cpu.branchPred.RASInCorrect",
		"system.cpu.commit.branchMispredicts",
		"system.cpu.commit.commitNonSpecStalls",
		"system.cpu.branchPred.indirectMisses",
		"system.cpu.dtb.prefetch_faults",
		"system.l2.ReadExReq_hits",
		"system.cpu.itb_walker_cache.overall_accesses",
		"system.cpu.itb_walker_cache.ReadReq_hits",
		"system.cpu.iew.exec_nop",
		"system.cpu.fetch.TlbCycles",
		"system.cpu.iew.predictedTakenIncorrect",
		"system.cpu.fetch.PendingTrapStallCycles",
		"system.cpu.dcache.writebacks",
		"system.mem_ctrls.readReqs",
	} {
		if _, ok := stats[name]; !ok {
			t.Errorf("missing statistic %q", name)
		}
	}
	if stats["sim_seconds"] <= 0 {
		t.Fatal("sim_seconds must be positive")
	}
	if stats["sim_insts"] != float64(m.Sample.Tally.Committed) {
		t.Fatal("sim_insts mismatch")
	}

	// The FP->SIMD misclassification defect is in the stats namespace.
	if stats["system.cpu.iq.FU_type::FloatAdd"] != 0 {
		t.Fatal("FloatAdd must read zero (misclassified as SIMD)")
	}

	names := StatNames(&m.Sample)
	if len(names) != len(stats) {
		t.Fatal("StatNames length mismatch")
	}
	for i := 1; i < len(names); i++ {
		if strings.Compare(names[i-1], names[i]) >= 0 {
			t.Fatal("StatNames must be sorted and unique")
		}
	}
}
