// Command campaign runs Monte-Carlo soft-error campaigns against the
// fault-tolerant Hessenberg reduction: Poisson error arrivals, footprint-
// weighted (or region-pinned) targets, random IEEE-754 bit flips — and
// reports detection coverage and recovery outcomes per sweep cell.
//
// Single cell:
//
//	campaign -n 254 -trials 100 -lambda 1.5
//
// Sweep with machine-readable artifacts, resumable after interruption:
//
//	campaign -n 126,190,254 -lambda 0.5,1,2 -trials 200 -workers 8 \
//	    -out campaign.jsonl -bench BENCH_campaign.json
//	campaign ... -resume            # skips trials already in -out
//	campaign -n 190 -devices 0,2,4  # sweep the device-pool axis too
//	                                # (0 = single device, k = k-GPU pool)
//	campaign -n 190 -schedule lookahead,serial
//	                                # sweep the update-schedule axis
//	                                # (coverage must not move: both
//	                                # schedules are bit-identical)
//	campaign -n 190 -devices 3 -killrate 0,0.5
//	                                # sweep the fail-stop device-loss
//	                                # axis: each killed trial must end
//	                                # recovered, never silent-corrupt
//	campaign -n 190 -devices 2 -substrate swept,fused
//	                                # sweep the BLAS FT substrate axis
//	                                # (fused = per-call in-kernel checks;
//	                                # coverage must not move: results are
//	                                # bit-identical across substrates)
//
// Exit codes: 0 — campaign ran, no silent corruption; 1 — campaign ran
// and found silent corruption (the failure mode the scheme exists to
// prevent); 2 — the campaign itself failed to run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/obs"
)

const (
	exitOK            = 0
	exitSilentCorrupt = 1
	exitRunFailure    = 2
)

// runSweep is swapped out by tests exercising the exit-code paths.
var runSweep = campaign.RunSweep

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ns := fs.String("n", "254", "matrix order(s), comma-separated sweep grid")
	nbs := fs.String("nb", "32", "block size(s), comma-separated sweep grid")
	lambdas := fs.String("lambda", "1.0", "expected soft errors per run (Poisson), comma-separated sweep grid")
	regions := fs.String("region", "all", "target region(s): all|h|q|panel, comma-separated sweep grid")
	bits := fs.String("bits", "20..62", "flipped-bit range(s) min..max, comma-separated sweep grid")
	devices := fs.String("devices", "0", "device-pool size(s), comma-separated sweep grid (0 = single device)")
	schedules := fs.String("schedule", campaign.ScheduleLookahead, "update schedule(s): lookahead|serial, comma-separated sweep grid")
	killRates := fs.String("killrate", "0", "fail-stop device-loss probability per trial, comma-separated sweep grid (a pool survives a loss by restarting on the survivors; a single device fails uncorrectable)")
	substrates := fs.String("substrate", "swept", "BLAS FT substrate(s): swept|fused, comma-separated sweep grid (fused verifies every device BLAS call in-kernel)")
	trials := fs.Int("trials", 50, "trials per sweep cell")
	seed := fs.Uint64("seed", 1, "campaign seed (fixes every trial at any worker count)")
	workers := fs.Int("workers", 1, "worker-pool width (results are identical at any value)")
	out := fs.String("out", "", "write per-trial JSONL records to this file")
	benchOut := fs.String("bench", "", "write the BENCH_campaign.json artifact to this file")
	resume := fs.Bool("resume", false, "resume from the partial JSONL in -out, appending only missing trials")
	progress := fs.Bool("progress", true, "print a progress line to stderr")
	metricsOut := fs.String("metrics", "", "write a Prometheus-style metrics exposition to this file")
	if err := fs.Parse(args); err != nil {
		return exitRunFailure
	}

	s := &campaign.Sweep{
		TrialsPerCell: *trials,
		Seed:          *seed,
		Workers:       *workers,
	}
	var err error
	if s.Ns, err = parseInts(*ns); err != nil {
		return fail(stderr, err)
	}
	if s.NBs, err = parseInts(*nbs); err != nil {
		return fail(stderr, err)
	}
	if s.Lambdas, err = parseFloats(*lambdas); err != nil {
		return fail(stderr, err)
	}
	if s.Regions, err = parseRegions(*regions); err != nil {
		return fail(stderr, err)
	}
	if s.BitRanges, err = parseBitRanges(*bits); err != nil {
		return fail(stderr, err)
	}
	if s.DeviceCounts, err = parseInts(*devices); err != nil {
		return fail(stderr, err)
	}
	for _, f := range strings.Split(*schedules, ",") {
		s.Schedules = append(s.Schedules, strings.TrimSpace(f))
	}
	for _, f := range strings.Split(*substrates, ",") {
		s.Substrates = append(s.Substrates, strings.TrimSpace(f))
	}
	if s.KillRates, err = parseFloats(*killRates); err != nil {
		return fail(stderr, err)
	}

	if *resume && *out == "" {
		return fail(stderr, fmt.Errorf("-resume needs -out"))
	}
	if *resume {
		if f, err := os.Open(*out); err == nil {
			s.Resume, err = campaign.LoadTrialJSONL(f)
			f.Close()
			if err != nil {
				return fail(stderr, fmt.Errorf("loading %s: %w", *out, err))
			}
			fmt.Fprintf(stderr, "resuming: %d trials already recorded in %s\n", len(s.Resume), *out)
		} else if !os.IsNotExist(err) {
			return fail(stderr, err)
		}
	}
	if *out != "" {
		flags := os.O_CREATE | os.O_WRONLY
		if *resume {
			flags |= os.O_APPEND
		} else {
			flags |= os.O_TRUNC
		}
		f, err := os.OpenFile(*out, flags, 0o644)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		s.TrialSink = f
	}
	if *progress {
		s.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "\rcampaign: %d/%d trials (%.1f%%)", done, total, 100*float64(done)/float64(total))
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		s.Obs = reg
	}

	rep, err := runSweep(s)
	if err != nil {
		return fail(stderr, err)
	}
	rep.Print(stdout)
	for _, c := range rep.Cells {
		for _, r := range c.Repros {
			fmt.Fprintf(stdout, "REPRO cell=%d trial=%d seed=%d outcome=%s plans=%+v events=%d\n",
				c.Cell.Index, r.Trial, r.Seed, r.Outcome, r.Plans, len(r.Events))
		}
	}
	if *benchOut != "" {
		f, err := os.Create(*benchOut)
		if err != nil {
			return fail(stderr, err)
		}
		werr := rep.WriteBenchJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fail(stderr, werr)
		}
	}
	if reg != nil {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return fail(stderr, err)
		}
		werr := reg.WritePrometheus(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fail(stderr, werr)
		}
	}
	if rep.Outcome(campaign.SilentCorrupt) > 0 {
		fmt.Fprintf(stderr, "campaign found %d silent corruption(s) — see the REPRO records above\n",
			rep.Outcome(campaign.SilentCorrupt))
		return exitSilentCorrupt
	}
	return exitOK
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "campaign failed: %v\n", err)
	return exitRunFailure
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseRegions(s string) ([]fault.Region, error) {
	var out []fault.Region
	for _, f := range strings.Split(s, ",") {
		r, err := fault.ParseRegion(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func parseBitRanges(s string) ([][2]uint, error) {
	var out [][2]uint
	for _, f := range strings.Split(s, ",") {
		lo, hi, ok := strings.Cut(strings.TrimSpace(f), "..")
		if !ok {
			return nil, fmt.Errorf("bad bit range %q (want min..max)", f)
		}
		l, err := strconv.ParseUint(lo, 10, 6)
		if err != nil {
			return nil, fmt.Errorf("bad bit range %q: %w", f, err)
		}
		h, err := strconv.ParseUint(hi, 10, 6)
		if err != nil {
			return nil, fmt.Errorf("bad bit range %q: %w", f, err)
		}
		out = append(out, [2]uint{uint(l), uint(h)})
	}
	return out, nil
}
