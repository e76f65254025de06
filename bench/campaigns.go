package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/platform"
	"gemstone/internal/stats"
	"gemstone/internal/workload"
)

// heldOutSuffix renames a profile into its held-out variant.
const heldOutSuffix = "~h"

// paperWarmReplays is how many times each cold paper campaign is replayed
// from its run cache through a fresh memory tier.
const paperWarmReplays = 5

// Paper numbers the v1-vs-HW validation must reproduce (EXPERIMENTS.md,
// T1): A15 MAPE and MPE at 1 GHz and MPE over all frequencies.
const (
	paperMAPE1GHz  = "65.7"
	paperMPE1GHz   = "-55.3"
	paperMPEAllFrq = "-51.7"
)

// paperCold is the researcher's task: Experiments 1-2 (the hardware
// reference and the gem5 v1 model over the 45 validation workloads, both
// clusters, the Experiment-1 DVFS grid) collected cold into a fresh run
// cache, replayed warm, then analysed. The seed permutes the workload
// order only, so every campaign's results are seed-free.
type paperCold struct {
	e        *env
	hw, v1   *platform.Platform
	profiles []workload.Profile

	campaigns []paperCampaign
	warm      runRecorder
	err       error
}

type paperCampaign struct {
	hw, v1   *core.RunSet
	analyses string
	a15      *core.ValidationSummary
}

func setupPaperCold(e *env) (instance, error) {
	p := &paperCold{
		e:        e,
		hw:       hw.Platform(),
		v1:       gem5.Platform(gem5.V1),
		profiles: permute(workload.Validation(), e.rng("paper_cold/order")),
	}
	return p, warmUp(platform.FidelityDetailed, p.hw, p.v1)
}

func (p *paperCold) jobProfiles() []workload.Profile { return p.profiles }
func (p *paperCold) close()                          {}

func (p *paperCold) run(ctx context.Context, d time.Duration) (*window, error) {
	var rec runRecorder
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		dir, err := os.MkdirTemp(p.e.tmp, "runcache-*")
		if err != nil {
			return nil, err
		}
		disk, err := core.NewDiskCache(dir)
		if err != nil {
			return nil, err
		}
		opt := core.CollectOptions{
			Workloads: p.profiles,
			Workers:   campaignWorkers,
			Observer:  &rec,
			Cache:     core.NewTieredCache(core.NewMemoryCache(0), disk),
		}
		var c paperCampaign
		if c.hw, err = core.Collect(ctx, p.hw, opt); err != nil {
			p.err = err
			break
		}
		if c.v1, err = core.Collect(ctx, p.v1, opt); err != nil {
			p.err = err
			break
		}
		for r := 0; r < paperWarmReplays; r++ {
			warm := opt
			warm.Observer = &p.warm
			warm.Cache = core.NewTieredCache(core.NewMemoryCache(0), disk)
			for _, pl := range []*platform.Platform{p.hw, p.v1} {
				if _, err = core.Collect(ctx, pl, warm); err != nil {
					break
				}
			}
			if err != nil {
				p.err = err
				break
			}
		}
		if p.err != nil {
			break
		}
		if c.analyses, c.a15, err = paperAnalyses(c.hw, c.v1); err != nil {
			return nil, err
		}
		p.campaigns = append(p.campaigns, c)
	}
	w := &window{}
	rec.fill(w)
	if len(p.campaigns) > 0 {
		c := p.campaigns[0]
		w.digest = combineDigests(runSetDigest(c.hw), runSetDigest(c.v1), c.analyses)
	}
	return w, nil
}

// paperAnalyses runs the paper's analyses over one campaign and digests
// their outputs.
func paperAnalyses(hwRS, v1RS *core.RunSet) (string, *core.ValidationSummary, error) {
	a15, err := core.Validate(hwRS, v1RS, hw.ClusterA15)
	if err != nil {
		return "", nil, err
	}
	a7, err := core.Validate(hwRS, v1RS, hw.ClusterA7)
	if err != nil {
		return "", nil, err
	}
	clusters, err := core.ClusterWorkloads(hwRS, v1RS, hw.ClusterA15, 1000, 16)
	if err != nil {
		return "", nil, err
	}
	corr, err := core.PMCErrorCorrelation(hwRS, v1RS, hw.ClusterA15, 1000, 30)
	if err != nil {
		return "", nil, err
	}
	sw := stats.DefaultStepwiseOptions()
	sw.MaxTerms = 8
	reg, err := core.ErrorRegressionPMC(hwRS, v1RS, hw.ClusterA15, 1000, sw)
	if err != nil {
		return "", nil, err
	}
	d, err := jsonDigest([]any{a15, a7, clusters, corr, reg})
	return d, a15, err
}

func (p *paperCold) check(w *window) []check {
	checks := []check{campaignErrorCheck(p.err)}
	n := len(p.campaigns)
	checks = append(checks, newCheck("complete-campaigns", n > 0, "%d complete cold campaigns", n))
	if n == 0 {
		return checks
	}
	var sets []*core.RunSet
	analysesOK := true
	for _, c := range p.campaigns {
		sets = append(sets, c.hw, c.v1)
		analysesOK = analysesOK && c.analyses == p.e.golden.PaperAnalyses
	}
	first := p.campaigns[0]
	rng := p.e.rng("paper_cold/fresh")
	a15 := first.a15
	f1 := a15.ByFreq[1000]
	mape, mpe, mpeAll := fmt.Sprintf("%.1f", f1.MAPE), fmt.Sprintf("%.1f", f1.MPE), fmt.Sprintf("%.1f", a15.MPE)
	p.e.logf("paper      v1 vs HW, A15: MAPE@1GHz %s%%  MPE@1GHz %s%%  MPE all freqs %s%%", mape, mpe, mpeAll)
	checks = append(checks,
		checkSlices("golden-slices", sets, p.e.golden.PaperCold),
		newCheck("golden-analyses", analysesOK, "analyses of %d campaigns against %s", n, p.e.golden.PaperAnalyses),
		newCheck("experiments-md", mape == paperMAPE1GHz && mpe == paperMPE1GHz && mpeAll == paperMPEAllFrq,
			"A15 MAPE@1GHz %s%% MPE@1GHz %s%% MPE %s%% (EXPERIMENTS.md T1: %s / %s / %s)",
			mape, mpe, mpeAll, paperMAPE1GHz, paperMPE1GHz, paperMPEAllFrq),
		checkInvariants("invariants", []*platform.Platform{p.hw, p.v1}, sets, true),
		checkFreshRuns("fresh-runs-hw", p.hw, first.hw, p.profiles, 4, rng),
		checkFreshRuns("fresh-runs-v1", p.v1, first.v1, p.profiles, 4, rng),
		newCheck("warm-hit-ratio", p.warm.hits > 0 && p.warm.simulated == 0 && p.warm.errs == 0,
			"%d warm replay lookups: %d hits, %d simulated", p.warm.hits+p.warm.simulated, p.warm.hits, p.warm.simulated),
	)
	return checks
}

// atomicScreen runs screen-then-resimulate campaigns (the atomic tier
// over the whole grid on both platforms, then detailed re-simulation of
// the flagged points) over held-out variants of the validation profiles:
// each profile renamed "<name>~h", which keeps its statistics but gives it
// an instruction stream the atomic tier was never tuned on. The seed
// permutes the workload order only, so the held-out set, the screen's
// cost and its results are the same for every seed.
type atomicScreen struct {
	e        *env
	hw, v1   *platform.Platform
	variants []workload.Profile
	results  []*core.ScreenResult
	err      error
}

func setupAtomicScreen(e *env) (instance, error) {
	a := &atomicScreen{e: e, hw: hw.Platform(), v1: gem5.Platform(gem5.V1),
		variants: permute(heldOutVariants(), e.rng("atomic_screen/order"))}
	return a, warmUp(platform.FidelityAtomic, a.hw, a.v1)
}

// heldOutVariants renames every validation profile into its held-out
// variant.
func heldOutVariants() []workload.Profile {
	var out []workload.Profile
	for _, prof := range workload.Validation() {
		prof.Name += heldOutSuffix
		out = append(out, prof)
	}
	return out
}

func (a *atomicScreen) jobProfiles() []workload.Profile { return a.variants }
func (a *atomicScreen) close()                          {}

func (a *atomicScreen) run(ctx context.Context, d time.Duration) (*window, error) {
	var rec runRecorder
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		res, err := core.Screen(ctx, a.hw, a.v1, core.ScreenOptions{
			Options: core.CollectOptions{Workloads: a.variants, Workers: campaignWorkers, Observer: &rec},
		})
		if err != nil {
			a.err = err
			break
		}
		a.results = append(a.results, res)
	}
	w := &window{}
	rec.fill(w)
	if len(a.results) > 0 {
		w.digest = screenDigest(a.results[0])
	}
	return w, nil
}

// screenDigest pins a screen result: both mixed-fidelity run sets and the
// flagged points in screening order.
func screenDigest(res *core.ScreenResult) string {
	parts := []string{runSetDigest(res.HW), runSetDigest(res.Sim)}
	for _, k := range res.Flagged {
		parts = append(parts, k.String())
	}
	return combineDigests(parts...)
}

func (a *atomicScreen) check(w *window) []check {
	checks := []check{campaignErrorCheck(a.err)}
	n := len(a.results)
	checks = append(checks, newCheck("complete-screens", n > 0, "%d complete screens", n))
	if n == 0 {
		return checks
	}
	first := a.results[0]
	same := true
	for _, r := range a.results[1:] {
		same = same && screenDigest(r) == w.digest
	}
	want := a.e.golden.AtomicScreen
	checks = append(checks,
		newCheck("deterministic", same, "%d screens agree on %s", n, w.digest),
		newCheck("golden-screen", w.digest == want, "digest %s, pinned %s", w.digest, want))
	flaggedOnly := func(rs *core.RunSet) *core.RunSet {
		out := &core.RunSet{Platform: rs.Platform, Runs: map[core.RunKey]platform.Measurement{}}
		for _, k := range first.Flagged {
			out.Runs[k] = rs.Runs[k]
		}
		return out
	}
	rng := a.e.rng("atomic_screen/fresh")
	return append(checks,
		newCheck("flagged", len(first.Flagged) >= core.ScreenDefaultTopK,
			"%d points flagged for detailed re-simulation", len(first.Flagged)),
		checkFreshRuns("resim-hw", a.hw, flaggedOnly(first.HW), a.variants, 4, rng),
		checkFreshRuns("resim-v1", a.v1, flaggedOnly(first.Sim), a.variants, 4, rng),
		checkInvariants("invariants", []*platform.Platform{a.hw, a.v1},
			[]*core.RunSet{flaggedOnly(first.HW), flaggedOnly(first.Sim)}, false),
	)
}

// warmUpProfile names the fixed campaign every campaign workload's set-up
// runs — its Experiment-1 grid on both platforms — so the window starts
// with the runtime, heap and code warm rather than timing first-use costs.
const warmUpProfile = "dhrystone"

func warmUp(fid platform.Fidelity, pls ...*platform.Platform) error {
	prof, err := workload.ByName(warmUpProfile)
	if err != nil {
		return err
	}
	for _, pl := range pls {
		if _, err := core.Collect(context.Background(), pl, core.CollectOptions{
			Workloads: []workload.Profile{prof}, Workers: campaignWorkers, Fidelity: fid,
		}); err != nil {
			return err
		}
	}
	return nil
}

func campaignErrorCheck(err error) check {
	if err != nil {
		return newCheck("campaign-errors", false, "%v", err)
	}
	return newCheck("campaign-errors", true, "none")
}

// combineDigests folds several digests into one.
func combineDigests(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return sum16(h)
}
