package gpu

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

func traceDevice() *Device {
	return New(sim.K40c(), Real)
}

func TestTraceDisabledRecordsNothing(t *testing.T) {
	d := traceDevice()
	a := d.Alloc(16, 16)
	h := matrix.Random(16, 16, 1)
	d.H2D(a, 0, 0, h)
	d.HostOp(1e-6, nil)
	if got := d.Trace(); len(got) != 0 {
		t.Fatalf("recorded %d spans without EnableTrace", len(got))
	}
}

func TestTraceOnOffBoundary(t *testing.T) {
	d := traceDevice()
	a := d.Alloc(16, 16)
	h := matrix.Random(16, 16, 1)
	d.H2D(a, 0, 0, h) // before enabling: not recorded
	d.EnableTrace()
	d.HostOp(1e-6, nil)
	d.D2H(h, a, 0, 0)
	spans := d.Trace()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans after enable, got %d: %+v", len(spans), spans)
	}
	if spans[0].Lane != "host" || spans[1].Lane != "gpu-copy" {
		t.Fatalf("unexpected lanes: %+v", spans)
	}
}

func TestChromeTraceRoundTripMetadataAndFlows(t *testing.T) {
	d := traceDevice()
	d.EnableTrace()
	a := d.Alloc(32, 32)
	h := matrix.Random(32, 32, 1)
	d.H2D(a, 0, 0, h)
	// Async D2H whose data the next host op consumes: must produce one
	// matched s/f flow pair.
	e := d.D2HAsync(h, a, 0, 0)
	d.Sync(e)
	d.HostOp(1e-5, nil)

	var buf bytes.Buffer
	if err := d.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}

	names := map[string]int{}
	threadNames := map[string]bool{}
	var flowS, flowF []float64
	slices := 0
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		names[ph]++
		switch ph {
		case "M":
			if args, ok := ev["args"].(map[string]any); ok {
				if n, ok := args["name"].(string); ok {
					threadNames[n] = true
				}
			}
		case "X":
			slices++
		case "s":
			flowS = append(flowS, ev["id"].(float64))
		case "f":
			if ev["bp"] != "e" {
				t.Fatalf("flow finish without bp:e: %v", ev)
			}
			flowF = append(flowF, ev["id"].(float64))
		}
	}
	if !threadNames["fthess-sim"] {
		t.Fatalf("missing process_name metadata; names seen: %v", threadNames)
	}
	for _, lane := range []string{"host", "gpu-compute", "gpu-copy"} {
		if !threadNames[lane] {
			t.Fatalf("missing thread_name for %q", lane)
		}
	}
	if slices != len(d.Trace()) {
		t.Fatalf("%d slices vs %d spans", slices, len(d.Trace()))
	}
	if len(flowS) != 1 || len(flowF) != 1 || flowS[0] != flowF[0] {
		t.Fatalf("flow pair mismatch: s=%v f=%v", flowS, flowF)
	}
}

func TestTraceSummaryIncludesCustomLane(t *testing.T) {
	d := traceDevice()
	d.EnableTrace()
	d.HostOp(1e-5, nil)
	// A custom lane recorded directly, as a future multi-stream device
	// extension would.
	d.record("gpu-copy2", kindD2H, 2e-5, 1e-5)
	d.record("aux", kindCustom, 3e-5, 1e-5)

	var buf bytes.Buffer
	d.TraceSummary(&buf)
	out := buf.String()
	hostIdx := strings.Index(out, "host")
	auxIdx := strings.Index(out, "aux")
	copy2Idx := strings.Index(out, "gpu-copy2")
	if hostIdx < 0 || auxIdx < 0 || copy2Idx < 0 {
		t.Fatalf("summary missing lanes:\n%s", out)
	}
	// Known lanes come first; custom lanes follow in sorted order.
	if !(hostIdx < auxIdx && auxIdx < copy2Idx) {
		t.Fatalf("lane order wrong:\n%s", out)
	}
}

func TestRecordFeedsObsRegistry(t *testing.T) {
	d := traceDevice()
	reg := obs.NewRegistry()
	d.SetObs(reg)
	prev := d.SetPhase("panel")
	if prev != "" {
		t.Fatalf("initial phase %q", prev)
	}
	a := d.Alloc(16, 16)
	h := matrix.Random(16, 16, 1)
	d.H2D(a, 0, 0, h)
	d.SetPhase("")
	d.HostOp(1e-5, nil)
	d.FinishRun()

	if got := reg.CounterValue("op_seconds_total", obs.L("kind", "h2d")); got <= 0 {
		t.Fatalf("h2d seconds = %v", got)
	}
	if got := reg.CounterValue("op_seconds_total", obs.L("kind", "host")); got <= 0 {
		t.Fatalf("host seconds = %v", got)
	}
	phases := obs.SumBy(reg, "phase_seconds", "phase")
	if phases["panel"] <= 0 || phases["other"] <= 0 {
		t.Fatalf("phases: %v", phases)
	}
	if reg.GaugeValue("sim_makespan_seconds") <= 0 {
		t.Fatal("makespan gauge not published")
	}
	if reg.GaugeValue("lane_busy_seconds", obs.L("lane", "host")) <= 0 {
		t.Fatal("lane busy gauge not published")
	}
}
