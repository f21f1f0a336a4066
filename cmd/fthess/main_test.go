package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs fthess's main instead of the tests when the test binary
// is re-executed as the CLI (see fthess).
func TestMain(m *testing.M) {
	if os.Getenv("FTHESS_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fthess runs the CLI with args and returns its exit code and stderr.
func fthess(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FTHESS_TEST_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestRefusedFaultPlans: a fault plan that cannot strike as stated exits
// 2 before any reduction runs. The first case used to never return: area
// 1 at iteration 0 offers one row, and the draw looked for a second.
func TestRefusedFaultPlans(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"area1 count above capacity", []string{"-n", "128", "-inject", "area1", "-iter", "0", "-count", "2"}, "capacity of Area1 at iteration 0"},
		{"area3 count above capacity", []string{"-n", "128", "-inject", "area3", "-iter", "1", "-count", "33"}, "capacity of Area3 at iteration 1: 32 position"},
		{"area3 at iteration 0", []string{"-n", "128", "-inject", "area3", "-iter", "0"}, "Area3 holds no position at iteration 0"},
		{"area2 past the last iteration", []string{"-n", "128", "-inject", "area2", "-iter", "99"}, "iteration 99 never runs"},
		{"kill past the last iteration", []string{"-n", "128", "-devices", "2", "-kill-point", "update", "-kill-iter", "9", "-costonly"}, "iteration 9 never runs"},
		{"sym past the last iteration", []string{"-sym", "-n", "128", "-inject", "area2", "-iter", "99"}, "iteration 99 never runs: an n=128, nb=32 symmetric reduction runs blocked iterations 0..1"},
		{"sym area1", []string{"-sym", "-n", "128", "-inject", "area1"}, "supports area2 only"},
		{"sym area3", []string{"-sym", "-n", "128", "-inject", "area3"}, "supports area2 only"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := fthess(t, tc.args...)
			if code != 2 || !strings.Contains(stderr, tc.want) {
				t.Fatalf("exit %d, stderr %q; want exit 2 naming %q", code, stderr, tc.want)
			}
		})
	}
}
