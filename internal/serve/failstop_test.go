package serve

import (
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/leakcheck"
)

// TestFailStopJobRecovers: a multi-device job whose device dies mid
// trailing update completes anyway — the reduction restarts on the two
// surviving devices, the job reports the recovered_failstop outcome, and
// every leased device goes back to the farm.
func TestFailStopJobRecovers(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Capacity: 1, Devices: 5})

	clean := submit(t, ts, `{"n":96,"nb":8,"seed":3,"devices":3}`)
	waitState(t, ts, clean, StateDone)
	cleanRes := getResult(t, ts, clean)

	id := submit(t, ts, `{"n":96,"nb":8,"seed":3,"devices":3,
		"faults":[{"iter":2,"kill_point":"update","kill_device":1}]}`)
	st := waitState(t, ts, id, StateDone)
	res := getResult(t, ts, id)
	if res.DeviceLosses != 1 || res.FailStopRecoveries != 1 {
		t.Fatalf("fail-stop job: losses=%d restarts=%d", res.DeviceLosses, res.FailStopRecoveries)
	}
	// The restarted run is bit-identical to the fault-free one, so the
	// residuals — computed from the same packed factorization — must
	// match to the last bit, not just to a tolerance.
	if math.Float64bits(float64(res.Residual)) != math.Float64bits(float64(cleanRes.Residual)) {
		t.Fatalf("restarted residual %v != clean %v (restart not bit-identical)",
			float64(res.Residual), float64(cleanRes.Residual))
	}
	if st.Reliability == nil || st.Reliability.DeviceLosses != 1 || st.Reliability.Reconstructions != 1 {
		t.Fatalf("reliability summary missing fail-stop events: %+v", st.Reliability)
	}

	resp, b := doReq(t, ts, http.MethodGet, "/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		`serve_jobs_total{status="recovered_failstop"} 1`,
		`serve_jobs_total{status="done"} 1`,
		`ft_device_losses_total{job="` + id + `"} 1`,
		`ft_failstop_reconstructions_total{job="` + id + `"} 1`,
		"serve_devices_leased 0",
		"serve_devices_free 5",
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("metrics missing %q:\n%s", want, b)
		}
	}
}

// TestFailStopDoubleFaultJob: losing a second device as the restart
// begins exceeds the single-loss budget; the job fails with the
// uncorrectable code rather than returning silently wrong bits, and the
// farm is restored.
func TestFailStopDoubleFaultJob(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Capacity: 1, Devices: 4})
	id := submit(t, ts, `{"n":96,"nb":8,"seed":4,"devices":3,
		"faults":[{"iter":1,"kill_point":"update","kill_device":0},
		          {"iter":1,"kill_point":"recovery","kill_device":2}]}`)
	st := waitState(t, ts, id, StateFailed)
	if st.ErrorCode != "uncorrectable" {
		t.Fatalf("double fault: error_code %q (err %q), want uncorrectable", st.ErrorCode, st.Error)
	}
	_, b := doReq(t, ts, http.MethodGet, "/metrics", "")
	if !strings.Contains(string(b), "serve_devices_free 4") {
		t.Fatalf("devices not returned after double fault:\n%s", b)
	}
}

// TestFailStopValidation: kill specs are strictly checked at submit
// time, and the retired fail_stop field is an unknown field like any
// other.
func TestFailStopValidation(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Capacity: 1, Devices: 2})
	for _, body := range []string{
		`{"n":64,"devices":2,"fail_stop":true}`,                                             // retired field
		`{"n":64,"devices":2,"faults":[{"iter":1,"kill_point":"nowhere"}]}`,                 // bad point
		`{"n":64,"devices":2,"faults":[{"iter":1,"kill_device":1}]}`,                        // device sans point
		`{"n":64,"devices":2,"faults":[{"iter":1}]}`,                                        // area 0 sans kill
		`{"n":64,"devices":2,"faults":[{"iter":1,"kill_point":"update","kill_device":-1}]}`, // bad device
		`{"n":64,"devices":2,"faults":[{"iter":1,"kill_point":"update","kill_device":2}]}`,  // outside the pool
		`{"n":64,"devices":2,"faults":[{"iter":1,"kill_point":"update","kill_device":5}]}`,  // far outside the pool
		`{"n":64,"faults":[{"iter":1,"kill_point":"update","kill_device":1}]}`,              // single device: only 0
	} {
		resp, b := doReq(t, ts, http.MethodPost, "/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
}
