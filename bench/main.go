// Command bench is GemStone's benchmark: one invocation runs one workload
// for a fixed host-time window, checks the program's outputs, and prints
// every metric by name with its unit. The last line of standard output is
// a JSON object {correct, attempted, failed, metrics}.
//
//	bench --workload paper_cold --seed 1 [--seconds 30] [--trace 0|1]
//	      [--trace-out t.json] [--out results.json]
//	bench compare [-agree] A.json B.json
//	bench golden [--out bench/golden.json]
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// runs the same window, then a traced pass of per-layer probes over a
// seeded sample of the workload's own jobs, and reports the per-layer
// metrics and writes the probe spans as a Chrome trace. The command exits
// 1 when an output check fails and 2 when it cannot run at all.
//
// Run it from the repository root through bench/run.sh, which builds the
// binary into .bench_build/ and keeps every file it writes there.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// setupRepeats is how many times each workload is set up per run; the
// reported setup_s is their median, and the window runs on the last one.
const setupRepeats = 3

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			os.Exit(compareMain(args[1:], os.Stdout, os.Stderr))
		case "golden":
			os.Exit(goldenMain(args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(runMain(args, os.Stdout, os.Stderr))
}

// check is one output-correctness verdict of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func newCheck(name string, ok bool, format string, args ...any) check {
	return check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// result is one run: the four fields of the result line plus the
// provenance the comparator and the results files keep.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Digest pins the run's simulated outputs; two runs of one workload
	// and seed must agree on it whatever the code's speed.
	Digest string  `json:"digest,omitempty"`
	Checks []check `json:"checks"`
}

// resultLine is the JSON object the last output line carries.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 0, "length of the timed window; 0 means run_seconds from the spec")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced probe pass")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	out := fs.String("out", "", "append the run record to this results file")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration")
	goldenPath := fs.String("golden", filepath.Join("bench", "golden.json"), "pinned output digests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	w, ok := workloads[*name]
	if !ok || !spec.hasWorkload(*name) {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	secs := *seconds
	if secs == 0 {
		secs = spec.RunSeconds
	}
	if secs <= 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive")
		return 2
	}
	g, err := loadGolden(*goldenPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp("", "gemstone-bench-*")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	env := &env{seed: *seed, golden: g, tmp: tmp, log: stdout}
	fmt.Fprintf(stdout, "workload %s  seed %d  window %ds  trace %d\n", *name, *seed, secs, *trace)
	res, tracer, err := execute(context.Background(), w, env, time.Duration(secs)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	res.Workload, res.Seed, res.Seconds, res.Trace = *name, *seed, secs, *trace == 1

	declared := spec.metricsFor(res.Trace)
	if diffs := matchDeclared(declared, res.Metrics); len(diffs) > 0 {
		fmt.Fprintf(stderr, "bench: emitted metrics differ from %s: %v\n", *specPath, diffs)
		return 2
	}
	if res.Trace {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		}
		if err := writeTrace(tracer, path); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "trace      %s\n", path)
	}
	report(stdout, res, declared)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]metricValue{}}
	for _, m := range declared {
		line.Metrics[m.Name] = metricValue{Value: res.Metrics[m.Name], Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(data))
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the checks and every metric by name with its unit.
func report(w io.Writer, res *result, declared []metricSpec) {
	for _, c := range res.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check      %-24s %-4s %s\n", c.Name, verdict, c.Detail)
	}
	fmt.Fprintf(w, "ops        attempted %d  failed %d  correct %v  digest %s\n",
		res.Attempted, res.Failed, res.Correct, res.Digest)
	for _, m := range declared {
		fmt.Fprintf(w, "metric     %-32s %14s %s\n", m.Name, strconv.FormatFloat(res.Metrics[m.Name], 'g', 6, 64), m.Unit)
	}
}

// resultSet is a results file: the runs of one or more invocations, in
// the order they ran.
type resultSet struct {
	Runs []result `json:"runs"`
}

func loadResults(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &rs, nil
}

// appendResult adds one run to a results file, creating it if needed.
func appendResult(path string, res *result) error {
	rs, err := loadResults(path)
	if errors.Is(err, os.ErrNotExist) {
		rs, err = &resultSet{}, nil
	}
	if err != nil {
		return err
	}
	rs.Runs = append(rs.Runs, *res)
	// One run per line keeps results files readable and their diffs small.
	var b bytes.Buffer
	b.WriteString("{\"runs\": [\n")
	for i, r := range rs.Runs {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b.Write(data)
		if i < len(rs.Runs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
