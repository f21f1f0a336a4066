package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// smallArgs keeps CLI tests fast: one tiny cell, few trials.
func smallArgs(extra ...string) []string {
	args := []string{
		"-n", "96", "-nb", "16", "-lambda", "1", "-trials", "3",
		"-seed", "5", "-progress=false",
	}
	return append(args, extra...)
}

func TestRunExitOK(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trials.jsonl")
	bench := filepath.Join(dir, "bench.json")
	var stdout, stderr bytes.Buffer
	code := run(smallArgs("-out", out, "-bench", bench), &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "clean-pass") {
		t.Fatalf("report missing outcome table:\n%s", stdout.String())
	}
	for _, f := range []string{out, bench} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Fatalf("artifact %s missing or empty (%v)", f, err)
		}
	}
}

// TestRunExitSilentCorrupt stubs the sweep to return a report containing a
// silent corruption: the CLI must signal it with exit code 1 — "the
// campaign ran and found the failure the scheme exists to prevent".
func TestRunExitSilentCorrupt(t *testing.T) {
	orig := runSweep
	defer func() { runSweep = orig }()
	runSweep = func(s *campaign.Sweep) (*campaign.SweepReport, error) {
		rep := &campaign.SweepReport{TotalTrials: 1}
		rep.Record(campaign.SilentCorrupt)
		return rep, nil
	}
	var stdout, stderr bytes.Buffer
	if code := run(smallArgs(), &stdout, &stderr); code != exitSilentCorrupt {
		t.Fatalf("exit %d, want %d", code, exitSilentCorrupt)
	}
	if !strings.Contains(stderr.String(), "silent corruption") {
		t.Fatalf("no silent-corruption diagnostic:\n%s", stderr.String())
	}
}

// TestRunExitFailure covers exit code 2: the campaign failed to run at
// all, whether from unparsable flags, an invalid grid, or a sweep error.
func TestRunExitFailure(t *testing.T) {
	cases := [][]string{
		{"-nope"},                        // unknown flag
		smallArgs("-n", "xyz"),           // unparsable grid value
		smallArgs("-lambda", "-3"),       // invalid config rejected by validate
		smallArgs("-bits", "62..20"),     // inverted bit range
		smallArgs("-bits", "20-62"),      // malformed bit range syntax
		smallArgs("-region", "gpu"),      // unknown region
		smallArgs("-resume"),             // -resume without -out
		smallArgs("-out", "/dev/full/x"), // unwritable sink path
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != exitRunFailure {
			t.Fatalf("args %v: exit %d, want %d (stderr: %s)", args, code, exitRunFailure, stderr.String())
		}
	}

	orig := runSweep
	defer func() { runSweep = orig }()
	runSweep = func(s *campaign.Sweep) (*campaign.SweepReport, error) {
		return nil, fmt.Errorf("synthetic sweep failure")
	}
	var stdout, stderr bytes.Buffer
	if code := run(smallArgs(), &stdout, &stderr); code != exitRunFailure {
		t.Fatalf("sweep error: exit %d, want %d", code, exitRunFailure)
	}
	if !strings.Contains(stderr.String(), "synthetic sweep failure") {
		t.Fatalf("sweep error not surfaced:\n%s", stderr.String())
	}
}

// TestRunResume interrupts a campaign by keeping only a prefix of its
// JSONL, then resumes: the final file must be byte-identical to an
// uninterrupted run.
func TestRunResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run(smallArgs("-trials", "4", "-out", full), &stdout, &stderr); code != exitOK {
		t.Fatalf("full run exit %d:\n%s", code, stderr.String())
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(want), "\n")
	part := filepath.Join(dir, "part.jsonl")
	if err := os.WriteFile(part, []byte(strings.Join(lines[:2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(smallArgs("-trials", "4", "-out", part, "-resume"), &stdout, &stderr); code != exitOK {
		t.Fatalf("resume exit %d:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "resuming: 2 trials") {
		t.Fatalf("no resume banner:\n%s", stderr.String())
	}
	got, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed file differs from uninterrupted run:\n%s\n---\n%s", got, want)
	}
}

func TestParseBitRanges(t *testing.T) {
	got, err := parseBitRanges("20..62,0..19")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != [2]uint{20, 62} || got[1] != [2]uint{0, 19} {
		t.Fatalf("parsed %v", got)
	}
	for _, bad := range []string{"20", "a..b", "20..999"} {
		if _, err := parseBitRanges(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// benchCampaignSweep is the recorded sweep of BENCH_campaign.json
// (scripts/regen_experiments.sh); its bytes are the same at any -workers.
const benchCampaignSweep = "-n 96,126,158 -nb 16 -lambda 0.5,1,2 -trials 200 -seed 1"

// TestBenchCampaignJSON reruns the recorded reliability sweep and
// byte-compares the committed BENCH_campaign.json.
func TestBenchCampaignJSON(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "BENCH_campaign.json")
	args := append(strings.Fields(benchCampaignSweep), "-workers", "1", "-progress=false", "-bench", bench)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code == exitRunFailure {
		t.Fatalf("sweep failed:\n%s", stderr.String())
	}
	got, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_campaign.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCH_campaign.json differs from a fresh run of its sweep; regenerate with: go run ./cmd/campaign %s -workers 8 -bench BENCH_campaign.json", benchCampaignSweep)
	}
}
