package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"path/filepath"

	"gemstone/internal/core"
	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/platform"
)

// goldenMain regenerates bench/golden.json. It is for deliberate model
// changes only: the golden file exists so that a change meant to make the
// simulator faster can show it changed no simulated number.
func goldenMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", filepath.Join("bench", "golden.json"), "golden file to write")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	g, err := makeGolden(stdout)
	if err == nil {
		err = g.save(*out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench golden:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return 0
}

func makeGolden(log io.Writer) (*golden, error) {
	ctx := context.Background()
	g := &golden{PaperCold: map[string]string{}}
	hwPl, v1 := hw.Platform(), gem5.Platform(gem5.V1)

	var paper [2]*core.RunSet
	for i, pl := range []*platform.Platform{hwPl, v1} {
		rs, err := core.Collect(ctx, pl, core.CollectOptions{Workers: campaignWorkers})
		if err != nil {
			return nil, err
		}
		paper[i] = rs
		for k, v := range sliceDigests(rs) {
			g.PaperCold[k] = v
		}
	}
	var err error
	if g.PaperAnalyses, _, err = paperAnalyses(paper[0], paper[1]); err != nil {
		return nil, err
	}
	fmt.Fprintln(log, "pinned paper_cold")

	res, err := core.Screen(ctx, hwPl, v1, core.ScreenOptions{
		Options: core.CollectOptions{Workloads: heldOutVariants(), Workers: campaignWorkers},
	})
	if err != nil {
		return nil, err
	}
	g.AtomicScreen = screenDigest(res)
	fmt.Fprintln(log, "pinned atomic_screen")
	return g, nil
}
