// Command experiments regenerates the paper's evaluation: every table and
// figure of Section VI, plus the ablation studies listed in DESIGN.md.
//
// Usage:
//
//	experiments -exp all                 # everything (tables II/III at laptop scale)
//	experiments -exp fig6 -paper         # Figure 6 at the paper's sizes (cost-only)
//	experiments -exp tableII -sizes 126,254,510
//	experiments -exp lookahead -out .    # regenerate BENCH_lookahead.json
//
// Figure 6 runs in cost-only mode (the analytic device model at the
// paper's matrix sizes); Figure 2 and Tables II/III execute real
// arithmetic. See EXPERIMENTS.md for the recorded paper-vs-measured
// comparison.
//
// The artifact studies (bench.Studies) run at fixed grids and print a
// report; with -out DIR they also write their BENCH_*.json into DIR, and
// nothing is written without it. The command exits 1 when a measured
// study's paired median misses its wall-clock bar.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|tableI|fig2|fig6|tableII|tableIII|ablation|breakdown|multierror|trace|timeline|"+studyNames())
	nb := flag.Int("nb", 32, "block size")
	sizesFlag := flag.String("sizes", "", "comma-separated matrix sizes (overrides defaults)")
	paper := flag.Bool("paper", false, "use the paper's full size grid for fig6 (cost-only, still fast)")
	seed := flag.Uint64("seed", 158, "workload seed")
	traceOut := flag.String("traceout", "", "write a Chrome trace JSON of the timeline experiment to this file")
	outDir := flag.String("out", "", "write each artifact study's BENCH_*.json into this directory")
	flag.Parse()

	params := sim.K40c()
	out := os.Stdout

	var sizes []int
	if *sizesFlag != "" {
		for _, s := range strings.Split(*sizesFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad size %q: %v\n", s, err)
				os.Exit(2)
			}
			sizes = append(sizes, v)
		}
	}

	fig6Sizes := sizes
	if fig6Sizes == nil {
		if *paper {
			fig6Sizes = bench.PaperSizes
		} else {
			fig6Sizes = []int{1022, 2046, 3070, 4030}
		}
	}
	realSizes := sizes
	if realSizes == nil {
		realSizes = bench.RealSizes
	}

	run := func(name string) {
		switch name {
		case "tableI":
			bench.TableI(out, params)
		case "fig2":
			bench.Fig2(out, *seed)
		case "fig6":
			bench.Fig6(out, fig6Sizes, *nb, params)
		case "tableII", "tableIII", "tables":
			bench.Tables23(out, realSizes, *nb)
		case "ablation":
			bench.Ablations(out, fig6Sizes[len(fig6Sizes)-1], params)
		case "breakdown":
			bench.Breakdown(out, fig6Sizes[len(fig6Sizes)-1], *nb, params)
		case "multierror":
			bench.MultiError(out, 158, *nb, 10, *seed)
		case "trace":
			bench.Trace(out, 158, *nb)
		case "timeline":
			bench.Timeline(out, 512, *nb, params, *traceOut)
		default:
			s, ok := bench.Lookup(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
				os.Exit(2)
			}
			runStudy(s, *outDir)
		}
		fmt.Fprintln(out)
	}

	if *exp == "all" {
		for _, name := range []string{"tableI", "fig2", "fig6", "tables", "ablation", "breakdown", "multierror", "multigpu", "trace", "timeline"} {
			run(name)
		}
		return
	}
	run(*exp)
}

// studyNames lists the -exp names of the artifact studies.
func studyNames() string {
	var names []string
	for _, s := range bench.Studies {
		names = append(names, s.Name)
	}
	return strings.Join(names, "|")
}

// runStudy runs one artifact study, prints its report, writes the
// artifact into dir when dir is set, and exits 1 on a missed wall bar.
func runStudy(s bench.Study, dir string) {
	art, err := s.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", s.Name, err)
		os.Exit(2)
	}
	art.Report(os.Stdout)
	if dir != "" {
		path, err := s.Write(dir, art)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.Name, err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s\n", path)
	}
	// Measured artifacts carry wall-clock bars judged on paired medians.
	// Only this command enforces them: a loaded test host can miss one
	// without any regression in the code.
	if t, ok := art.(interface{ WallCheck() error }); ok {
		if err := t.WallCheck(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: bar missed: %v\n", s.Name, err)
			os.Exit(1)
		}
	}
}
