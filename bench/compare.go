package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// minPairs is the fewest parent/change run pairs a gain may rest on.
const minPairs = 10

// verdicts of one metric on one workload.
const (
	verdictGain       = "gain"
	verdictSame       = "same"
	verdictBetter     = "better" // better beyond the bound, but not a claimable gain
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
)

// metricVerdict compares one end-to-end metric of one workload between a
// parent set a and a change set b, whose runs are paired in order.
type metricVerdict struct {
	name             string
	medA, medB       float64
	spreadA, spreadB float64
	// worse is the change's median relative to the parent's, signed so
	// that positive is worse whatever the metric's direction.
	worse   float64
	wins    int
	pairs   int
	verdict string
}

func compareMetric(m metricSpec, a, b []float64) metricVerdict {
	v := metricVerdict{name: m.Name, medA: median(a), medB: median(b), spreadA: spread(a), spreadB: spread(b)}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	v.worse = sign * (v.medB - v.medA) / math.Abs(v.medA)
	v.pairs = min(len(a), len(b))
	for i := 0; i < v.pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			v.wins++
		}
	}
	q1, q3 := quartiles(a)
	switch {
	case v.pairs >= minPairs && float64(v.wins) >= 0.9*float64(v.pairs) && -v.worse*math.Abs(v.medA) > q3-q1:
		v.verdict = verdictGain
	case v.spreadA > m.Bound || v.spreadB > m.Bound:
		v.verdict = verdictUnresolved
		if allBetter(m, a, b) {
			v.verdict = verdictBetter
		}
	case v.worse > m.Bound:
		v.verdict = verdictWorse
	case v.worse < -m.Bound:
		v.verdict = verdictBetter
	default:
		v.verdict = verdictSame
	}
	return v
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(m metricSpec, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// comparison is the outcome for one workload.
type comparison struct {
	workload string
	runsA    int
	runsB    int
	metrics  []metricVerdict
	problems []string
}

// compareSets compares two result sets workload by workload: the
// untraced runs' end-to-end metrics, every run's digest per seed, and the
// traced runs' simulated metrics per seed, which must be identical. In
// agree mode the sets come from the same code, so every median must agree
// within its bound in both directions and every spread but setup_s's must
// stay within it; otherwise the change set may not be worse by more than a
// bound.
func compareSets(spec *benchSpec, a, b *resultSet, agree bool) ([]comparison, bool) {
	byWorkload := func(rs *resultSet, trace bool) map[string][]result {
		out := map[string][]result{}
		for _, r := range rs.Runs {
			if r.Trace == trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		return out
	}
	wa, wb := byWorkload(a, false), byWorkload(b, false)
	ta, tb := byWorkload(a, true), byWorkload(b, true)
	ok := true
	var out []comparison
	for _, w := range spec.Workloads {
		ra, rb := wa[w.Name], wb[w.Name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		c := comparison{workload: w.Name, runsA: len(ra), runsB: len(rb)}
		if len(ra) == 0 || len(rb) == 0 {
			c.problems = append(c.problems, "missing on one side")
		}
		c.problems = append(c.problems, runProblems(append(ra, ta[w.Name]...), append(rb, tb[w.Name]...))...)
		c.problems = append(c.problems, simProblems(ta[w.Name], tb[w.Name])...)
		for _, m := range spec.EndToEnd {
			v := compareMetric(m, values(ra, m.Name), values(rb, m.Name))
			c.metrics = append(c.metrics, v)
			switch {
			case agree && math.Abs(v.worse) > m.Bound:
				c.problems = append(c.problems, fmt.Sprintf("%s medians differ by %+.1f%%", m.Name, 100*v.worse))
			case agree && m.Name != "setup_s" && (v.spreadA > m.Bound || v.spreadB > m.Bound):
				c.problems = append(c.problems, fmt.Sprintf("%s spread %.1f%%/%.1f%% exceeds the %.0f%% bound",
					m.Name, 100*v.spreadA, 100*v.spreadB, 100*m.Bound))
			case !agree && v.verdict == verdictWorse:
				c.problems = append(c.problems, fmt.Sprintf("%s regressed %+.1f%%", m.Name, 100*v.worse))
			}
		}
		ok = ok && len(c.problems) == 0
		out = append(out, c)
	}
	return out, ok
}

// runProblems lists failed runs and digest disagreements: runs of one
// workload and seed must pin the same outputs on both sides.
func runProblems(a, b []result) []string {
	var problems []string
	digests := map[uint64]string{}
	for _, side := range [][]result{a, b} {
		for _, r := range side {
			if !r.Correct || r.Failed > 0 {
				problems = append(problems, fmt.Sprintf("seed %d: correct=%v failed=%d", r.Seed, r.Correct, r.Failed))
			}
			if d, ok := digests[r.Seed]; ok && d != r.Digest {
				problems = append(problems, fmt.Sprintf("seed %d: digest %s vs %s", r.Seed, d, r.Digest))
			}
			digests[r.Seed] = r.Digest
		}
	}
	return problems
}

// simProblems lists the simulated per-layer metrics that differ between
// traced runs of one seed: they must be identical whatever the host time.
func simProblems(a, b []result) []string {
	var problems []string
	bySeed := map[uint64]result{}
	for _, r := range a {
		bySeed[r.Seed] = r
	}
	for _, r := range b {
		ra, ok := bySeed[r.Seed]
		if !ok {
			continue
		}
		for _, name := range simMetrics {
			if ra.Metrics[name] != r.Metrics[name] {
				problems = append(problems, fmt.Sprintf("seed %d: %s %v vs %v", r.Seed, name, ra.Metrics[name], r.Metrics[name]))
			}
		}
	}
	return problems
}

func values(rs []result, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	agree := fs.Bool("agree", false, "the two sets ran the same code: require agreement within every bound")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-agree] PARENT.json CHANGE.json")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	sets := make([]*resultSet, 2)
	for i, path := range fs.Args() {
		if sets[i], err = loadResults(path); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
	}
	comps, ok := compareSets(spec, sets[0], sets[1], *agree)
	printComparison(stdout, comps)
	if !ok {
		fmt.Fprintln(stdout, "FAIL")
		return 1
	}
	fmt.Fprintln(stdout, "PASS")
	return 0
}

// printComparison prints one row per workload: per metric the two
// medians, the relative change (positive is worse), and the verdict.
func printComparison(w io.Writer, comps []comparison) {
	for _, c := range comps {
		cells := make([]string, 0, len(c.metrics))
		for _, v := range c.metrics {
			cells = append(cells, fmt.Sprintf("%s %.4g→%.4g %+.1f%% %s (wins %d/%d, spread %.1f%%/%.1f%%)",
				v.name, v.medA, v.medB, 100*v.worse, v.verdict, v.wins, v.pairs, 100*v.spreadA, 100*v.spreadB))
		}
		fmt.Fprintf(w, "%-14s runs %d/%d | %s\n", c.workload, c.runsA, c.runsB, strings.Join(cells, " | "))
		for _, p := range c.problems {
			fmt.Fprintf(w, "%-14s   problem: %s\n", "", p)
		}
	}
}
