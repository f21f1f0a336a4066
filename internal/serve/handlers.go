package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/ft"
	"repro/internal/matrix"
)

// errorBody is the JSON shape of every non-2xx response. Code is the
// machine-readable failure class (see classify); clients branch on it
// instead of parsing Error.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to do on error
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// errClass maps one failure family to its HTTP status and wire code.
type errClass struct {
	status int
	code   string
}

// classify sorts a terminal job error into its failure class. A request
// whose shape no reduction accepts is a 400 at submit (JobRequest.validate),
// so a job that ran fails only on the server side or by cancellation.
func classify(err error) errClass {
	switch {
	case err == nil:
		return errClass{http.StatusOK, ""}
	case errors.Is(err, ft.ErrUncorrectable):
		return errClass{http.StatusInternalServerError, "uncorrectable"}
	case errors.Is(err, ft.ErrDetectionStorm):
		return errClass{http.StatusInternalServerError, "detection_storm"}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return errClass{http.StatusGone, "cancelled"}
	}
	return errClass{http.StatusInternalServerError, "internal"}
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a reduction job (202, or 429/503)
//	GET    /v1/jobs/{id}        job status + live phase + FT reliability
//	GET    /v1/jobs/{id}/result finished job's result (409 until done)
//	GET    /v1/jobs/{id}/trace  per-job Chrome trace (409 until terminal)
//	DELETE /v1/jobs/{id}        cancel (or forget a finished job)
//	GET    /v1/version          build info (go version, VCS revision)
//	GET    /metrics             Prometheus exposition (obs + serve_*)
//	GET    /debug/events        FT flight-recorder dump (last N events)
//	GET    /debug/pprof/        net/http/pprof (Config.EnablePprof only)
//	GET    /healthz             liveness
//	GET    /readyz              readiness (503 while draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Build())
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/events", s.handleEvents)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	})
	return mux
}

// retryAfter estimates how long a 429'd client should back off: the
// work ahead of it (queue depth × the recent median job duration) spread
// over the worker pool, clamped to [1, 30] seconds. Before any job has
// finished there is no p50 and the floor applies.
func (s *Server) retryAfter() int {
	return retryAfterSeconds(s.queue.Len(), s.hSeconds.Snap().Quantile(0.5), s.cfg.Capacity)
}

// retryAfterSeconds is the pure estimator behind the Retry-After header.
func retryAfterSeconds(depth int, p50 float64, capacity int) int {
	if capacity < 1 {
		capacity = 1
	}
	if math.IsNaN(p50) || p50 < 0 {
		p50 = 0
	}
	secs := int(math.Ceil(float64(depth) * p50 / float64(capacity)))
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.recorder.WriteJSON(w)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, err := DecodeJobRequest(body, s.cfg.MaxN)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// An upload is parsed now, so a bad document is a 400, and only the
	// parsed matrix is kept. A generated input waits for the worker.
	var a *matrix.Matrix
	if req.MatrixMarket != "" {
		if a, err = req.Matrix(s.cfg.MaxN); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if err = req.checkFaults(a.Rows); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		req.MatrixMarket = ""
	}
	st, err := s.Submit(req, a)
	switch {
	case errors.Is(err, ErrDeviceRequest):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Code: "bad_device_request"})
		return
	case errors.Is(err, ErrBatchRequest):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Code: "bad_batch_request"})
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	s.mu.Lock()
	st := j.statusLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	s.mu.Lock()
	state, res := j.state, j.result
	var jerr error = j.err
	s.mu.Unlock()
	switch state {
	case StateQueued, StateRunning:
		writeError(w, http.StatusConflict, "job is "+state+"; result not ready")
	case StateCancelled:
		writeJSON(w, http.StatusGone, errorBody{Error: "job was cancelled", Code: "cancelled"})
	case StateFailed:
		c := classify(jerr)
		writeJSON(w, c.status, errorBody{Error: jerr.Error(), Code: c.code})
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

// handleTrace serves the per-job Chrome trace (ObserveFull only). The
// trace is an execution postmortem: it exists once the job is terminal,
// and asking earlier gets 409 like an early result fetch.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	s.mu.Lock()
	state := j.state
	s.mu.Unlock()
	switch state {
	case StateQueued, StateRunning:
		writeError(w, http.StatusConflict, "job is "+state+"; trace not ready")
		return
	}
	if j.tracer == nil {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: "no trace: server runs at observe=slo", Code: "no_trace"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = writeChromeTrace(w, j)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	state, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"state": state})
}
