package bench

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Each artifact study has one golden test, named after its artifact, and
// every such test runs through testStudy. The obs and blas studies are
// tested beside their artifacts' other readers: TestBenchObsJSON in the
// root package and TestBenchBlasJSON in internal/blas.
func TestBenchLookaheadJSON(t *testing.T)  { testStudy(t, "lookahead") }
func TestBenchMultiGPUJSON(t *testing.T)   { testStudy(t, "multigpu") }
func TestBenchFailStopJSON(t *testing.T)   { testStudy(t, "failstop") }
func TestBenchBlasFTJSON(t *testing.T)     { testStudy(t, "blasft") }
func TestBenchThroughputJSON(t *testing.T) { testStudy(t, "serve_throughput") }
func TestBenchServeObsJSON(t *testing.T)   { testStudy(t, "serveobs") }

// testedElsewhere names the golden tests of studies outside this package.
var testedElsewhere = map[string]string{
	"obs":  "repro:TestBenchObsJSON",
	"blas": "repro/internal/blas:TestBenchBlasJSON",
}

// TestEveryStudyTested keeps the study table and the golden tests in step.
func TestEveryStudyTested(t *testing.T) {
	for _, s := range Studies {
		_, here := studyChecks[s.Name]
		_, there := testedElsewhere[s.Name]
		if here == there {
			t.Errorf("study %q: want exactly one golden test (checks here %v, elsewhere %v)", s.Name, here, there)
		}
	}
}

// testStudy runs one artifact study at its fixed grid and enforces its
// deterministic bars. A modeled artifact must match the committed file
// byte for byte. A measured study runs a single pair and is checked in
// memory only: its wall bars belong to cmd/experiments, and no test
// writes an artifact.
func testStudy(t *testing.T, name string) {
	s, ok := Lookup(name)
	if !ok {
		t.Fatalf("no study %q", name)
	}
	if s.Pairs > 0 {
		if testing.Short() {
			t.Skip("measured study: skipped in -short mode")
		}
		s.Pairs = 1
	}
	art, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	art.Report(&sb)
	t.Log("\n" + sb.String())
	studyChecks[name](t, art)
	if s.Pairs == 0 {
		if err := s.Diff("../..", art); err != nil {
			t.Error(err)
		}
	}
}

// studyChecks holds each study's deterministic acceptance bars.
var studyChecks = map[string]func(t *testing.T, art Artifact){
	// Depth-1 lookahead, at the largest cell (N=2048, K=4): lookahead-on
	// clears 1.2× the pre-lookahead anchor of 81.7 GFLOPS (the shared
	// checksum-vector caching that landed with the schedule also sped up
	// the lookahead-off cells, so the on/off ratio understates the gain
	// over the previous release) and still beats lookahead-off. Every
	// lookahead-on cell hides >80% of its panel time (every panel after
	// the first runs under the previous trailing update).
	"lookahead": func(t *testing.T, art Artifact) {
		a := art.(*LookaheadArtifact)
		if len(a.Cells) != 18 {
			t.Fatalf("expected 18 cells (2 schedules × 3 sizes × 3 pools), got %d", len(a.Cells))
		}
		for _, c := range a.Cells {
			if c.N == 2048 && c.Devices == 4 && c.Lookahead && c.GFLOPS < 1.2*81.7 {
				t.Errorf("FT N=2048 K=4 with lookahead: %.1f GFLOPS below 1.2x the pre-lookahead 81.7", c.GFLOPS)
			}
			if hidden := c.PanelHiddenFrac; c.Lookahead && hidden < 0.8 || !c.Lookahead && hidden != 0 {
				t.Errorf("N=%d K=%d lookahead=%v: panel_hidden_frac=%.3f", c.N, c.Devices, c.Lookahead, hidden)
			}
		}
		if sp := a.Speedup(2048, 4); sp <= 1 {
			t.Errorf("lookahead on/off speedup %.2fx at N=2048 K=4 is not a win", sp)
		}
	},
	// Device scaling: the K=4 pool cuts both makespans by ≥2× versus K=1
	// (2.5× before lookahead hid the serial panel work that dominated
	// K=1), and protection is never free.
	"multigpu": func(t *testing.T, art Artifact) {
		a := art.(*MultiGPUArtifact)
		if len(a.Rows) != 3 || a.Rows[0].Devices != 1 {
			t.Fatalf("unexpected rows: %+v", a.Rows)
		}
		if k4 := a.Rows[2]; k4.HybridSpeedup < 2 || k4.FTSpeedup < 2 {
			t.Errorf("K=4 speedups hybrid %.2fx, FT %.2fx: below the 2x bar", k4.HybridSpeedup, k4.FTSpeedup)
		}
		for _, r := range a.Rows {
			if r.FTSimSeconds <= r.HybridSimSeconds {
				t.Errorf("K=%d: FT makespan %.4fs not above hybrid %.4fs", r.Devices, r.FTSimSeconds, r.HybridSimSeconds)
			}
		}
	},
	// Fail-stop: parity upkeep costs time over a clean run, the killed run
	// adds its reconstruction on top, and a restart costs more than the
	// clean run it repeats.
	"failstop": func(t *testing.T, art Artifact) {
		a := art.(*FailStopArtifact)
		if len(a.Cells) != 9 {
			t.Fatalf("expected 9 cells (3 sizes × 3 pools), got %d", len(a.Cells))
		}
		for _, c := range a.Cells {
			if !(c.CleanSeconds < c.ParitySeconds && c.ParitySeconds <= c.RecoverySeconds && c.CleanSeconds < c.RestartSeconds) {
				t.Errorf("N=%d K=%d: want clean < parity <= recovery and clean < restart, got %.4f, %.4f, %.4f, %.4f",
					c.N, c.Devices, c.CleanSeconds, c.ParitySeconds, c.RecoverySeconds, c.RestartSeconds)
			}
		}
	},
	// Fused-ABFT substrate: the self-test detects every planted fault;
	// every fused call runs checks; the extra-flop model stays ≤8% at 512³
	// (the short-k shapes amortize worse through the 3/k epilogue term);
	// the fused substrate cuts modeled checksum_maintenance by ≥20%; and
	// the real fused run verifies in-kernel with zero detections.
	"blasft": func(t *testing.T, art Artifact) {
		a := art.(*BlasFTArtifact)
		if !a.SelfTest.Passed() {
			t.Errorf("planted-fault self-test failed: %+v", a.SelfTest)
		}
		for _, c := range a.Gemm {
			if c.Checks <= 0 {
				t.Errorf("gemm %dx%dx%d: fused call reports %d checks", c.M, c.N, c.K, c.Checks)
			}
			if c.M == 512 && c.N == 512 && c.K == 512 && c.ModelOverheadPct > 8 {
				t.Errorf("gemm 512³: model overhead %.2f%% above the 8%% bar", c.ModelOverheadPct)
			}
		}
		if m := a.Maintenance; m.FusedSec > 0.8*m.SweptSec {
			t.Errorf("checksum_maintenance: fused %.6fs not under 80%% of swept %.6fs", m.FusedSec, m.SweptSec)
		}
		if rr := a.RealRun; rr.SubstrateChecks <= 0 || rr.SubstrateDetections != 0 {
			t.Errorf("real fused run: %d checks, %d detections; want checks > 0 and no detections",
				rr.SubstrateChecks, rr.SubstrateDetections)
		}
	},
	// Batched throughput: fractional leases deliver ≥2× the modeled
	// jobs/sec of whole-device leases at the largest size (a digest drift
	// between lease granularities, or a cache hit serving other bits, is
	// already an error inside the study), and the cache counters match
	// the pairs served.
	"serve_throughput": func(t *testing.T, art Artifact) {
		a := art.(*ThroughputArtifact)
		for _, sz := range a.Sizes {
			if sz.Whole.ModeledMakespanSec <= 0 || sz.Fractional.ModeledMakespanSec <= 0 {
				t.Errorf("n=%d: empty makespan (whole %v, fractional %v)",
					sz.N, sz.Whole.ModeledMakespanSec, sz.Fractional.ModeledMakespanSec)
			}
		}
		if head := a.Sizes[len(a.Sizes)-1]; head.ModeledSpeedup < 2 {
			t.Errorf("n=%d fractional-lease modeled speedup %.2fx below the 2x bar", head.N, head.ModeledSpeedup)
		}
		if c := a.Cache; c.Hits != float64(c.Pairs) || c.Misses != float64(c.Pairs+1) {
			t.Errorf("cache counters hits=%v misses=%v, want %d and %d", c.Hits, c.Misses, c.Pairs, c.Pairs+1)
		}
	},
	// Serving observability: both arms' latency histograms recorded the
	// mix, with positive, ordered quantiles.
	"serveobs": func(t *testing.T, art Artifact) {
		a := art.(*ServeObsArtifact)
		for _, arm := range []ServeObsArm{a.SLO, a.Full} {
			if !(0 < arm.P50 && arm.P50 <= arm.P95 && arm.P95 <= arm.P99) {
				t.Errorf("observe=%s: quantiles p50=%v p95=%v p99=%v", arm.Observe, arm.P50, arm.P95, arm.P99)
			}
		}
	},
}

// TestDiffNamesRegenerationCommand hand-edits one number of a committed
// artifact and expects the golden check to fail with the command that
// regenerates it.
func TestDiffNamesRegenerationCommand(t *testing.T) {
	s, _ := Lookup("blas")
	art, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join("../..", s.File))
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(committed), `"block_mc": 128`, `"block_mc": 129`, 1)
	if edited == string(committed) {
		t.Fatal("edit did not apply")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, s.File), []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	err = s.Diff(dir, art)
	if err == nil {
		t.Fatal("edited artifact passed the golden check")
	}
	if want := "go run ./cmd/experiments -exp blas -out ."; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}
	if err := s.Diff(filepath.Join("../.."), art); err != nil {
		t.Errorf("unedited artifact: %v", err)
	}
}

func TestSpreadOf(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want Spread
	}{
		{[]float64{5, 1, 4, 2, 3}, Spread{Median: 3, Q1: 2, Q3: 4}},
		{[]float64{4, 1, 3, 2}, Spread{Median: 2.5, Q1: 1.75, Q3: 3.25}},
		{[]float64{7}, Spread{Median: 7, Q1: 7, Q3: 7}},
	} {
		if got := spreadOf(tc.xs); got != tc.want {
			t.Errorf("spreadOf(%v) = %+v, want %+v", tc.xs, got, tc.want)
		}
	}
	if got := (Spread{Median: 1.5, Q1: 0.5, Q3: 2}).pct(); got != (Spread{Median: 50, Q1: -50, Q3: 100}) {
		t.Errorf("pct = %+v", got)
	}
}

// TestPairedAlternatesOrder drives paired with two recording fakes: the
// arms must alternate which goes first, and each sample must land with
// its own arm whatever the order.
func TestPairedAlternatesOrder(t *testing.T) {
	var log []string
	var na, nb float64
	a := func() (float64, error) { log = append(log, "a"); na++; return na, nil }
	b := func() (float64, error) { log = append(log, "b"); nb++; return 10 * nb, nil }
	p, err := paired(4, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "b", "a", "a", "b", "b", "a"}; !reflect.DeepEqual(log, want) {
		t.Errorf("call order %v, want %v", log, want)
	}
	if p.A != spreadOf([]float64{1, 2, 3, 4}) || p.B != spreadOf([]float64{10, 20, 30, 40}) {
		t.Errorf("arm spreads %+v, %+v", p.A, p.B)
	}
	if p.Ratio != (Spread{Median: 10, Q1: 10, Q3: 10}) {
		t.Errorf("ratio %+v, want 10", p.Ratio)
	}

	boom := errors.New("boom")
	if _, err := paired(3, a, func() (float64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Errorf("arm error not returned: %v", err)
	}
}
