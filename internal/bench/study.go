package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/blas"
	"repro/internal/serve"
	"repro/internal/sim"
)

// An Artifact is the result of one study: a JSON document, committed as
// a BENCH_*.json file, that prints itself as a text report.
type Artifact interface {
	Report(w io.Writer)
}

// Study is one artifact-producing experiment at its fixed grid.
type Study struct {
	// Name is the cmd/experiments -exp selector.
	Name string
	// File is the committed artifact, relative to the repository root.
	File string
	// Pairs is how many paired, alternating-order repetitions time a
	// measured study's wall-clock arms. Zero marks a modeled study:
	// deterministic, and byte-compared against File by the tests.
	Pairs int
	run   func(pairs int) (Artifact, error)
}

// Studies lists every committed BENCH artifact that cmd/experiments
// regenerates (BENCH_campaign.json comes from cmd/campaign).
var Studies = []Study{
	{Name: "lookahead", File: "BENCH_lookahead.json", run: func(int) (Artifact, error) {
		return Lookahead([]int{512, 1024, 2048}, []int{1, 2, 4}, 32, sim.K40c())
	}},
	{Name: "multigpu", File: "BENCH_multigpu.json", run: func(int) (Artifact, error) {
		return MultiGPU(2048, 16, []int{1, 2, 4}, sim.K40c())
	}},
	{Name: "failstop", File: "BENCH_failstop.json", run: func(int) (Artifact, error) {
		return FailStop([]int{512, 1024, 2048}, []int{2, 3, 4}, 32, sim.K40c())
	}},
	{Name: "obs", File: "BENCH_obs.json", run: func(int) (Artifact, error) {
		return Obs([]int{1022, 2046, 4030}, 32, sim.K40c())
	}},
	{Name: "blas", File: "BENCH_blas.json", run: func(int) (Artifact, error) {
		return blas.ShapeCatalogue(), nil
	}},
	{Name: "blasft", File: "BENCH_blasft.json", Pairs: 301, run: func(pairs int) (Artifact, error) {
		return BlasFT(BlasFTShapes, pairs, sim.K40c())
	}},
	{Name: "serve_throughput", File: "BENCH_throughput.json", Pairs: 15, run: func(pairs int) (Artifact, error) {
		return Throughput([]int{64, 128, 256}, 32, 2, 4, 8, 2, 16, pairs)
	}},
	{Name: "serveobs", File: "BENCH_serveobs.json", Pairs: 57, run: func(pairs int) (Artifact, error) {
		return ServeObs(512, 32, 8, pairs)
	}},
}

// Lookup returns the study selected by -exp name.
func Lookup(name string) (Study, bool) {
	for _, s := range Studies {
		if s.Name == name {
			return s, true
		}
	}
	return Study{}, false
}

// Run runs the study at its fixed grid.
func (s Study) Run() (Artifact, error) { return s.run(s.Pairs) }

// Write writes the artifact into dir under the study's file name and
// returns the path.
func (s Study) Write(dir string, art Artifact) (string, error) {
	buf, err := encode(art)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, s.File)
	return path, os.WriteFile(path, buf, 0o644)
}

// Diff compares the artifact with the copy committed in dir; a mismatch
// names the command that regenerates it.
func (s Study) Diff(dir string, art Artifact) error {
	got, err := encode(art)
	if err != nil {
		return err
	}
	want, err := os.ReadFile(filepath.Join(dir, s.File))
	if err == nil && !bytes.Equal(got, want) {
		err = fmt.Errorf("%s is stale", s.File)
	}
	if err != nil {
		return fmt.Errorf("%w; regenerate with: go run ./cmd/experiments -exp %s -out .", err, s.Name)
	}
	return nil
}

// encode renders an artifact the way it is committed: indented JSON and
// a trailing newline.
func encode(art Artifact) ([]byte, error) {
	buf, err := json.MarshalIndent(art, "", "  ")
	return append(buf, '\n'), err
}

// Provenance stamps a measured artifact with what produced it.
type Provenance struct {
	Build      serve.BuildInfo `json:"build"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	AVX2FMA    bool            `json:"avx2_fma"`
}

// stamp reads the provenance of this process.
func stamp() Provenance {
	return Provenance{
		Build:      serve.Build(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		AVX2FMA:    blas.AVX2FMA(),
	}
}
