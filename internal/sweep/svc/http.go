package svc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"autofl/internal/sweep/dist"
)

// maxSpecBytes bounds a submitted spec body (a grid declaration is
// tiny; the bound exists so a hostile body cannot balloon memory).
const maxSpecBytes = 1 << 20

// Handler exposes the service's v1 HTTP+JSON API:
//
//	POST   /v1/sweeps             submit a JobSpec          → 202 JobStatus
//	GET    /v1/sweeps             list jobs                 → 200 [JobStatus]
//	GET    /v1/sweeps/{id}        status + live progress    → 200 JobStatus
//	GET    /v1/sweeps/{id}/result finished results          → 200 JSON (?format=csv for CSV)
//	DELETE /v1/sweeps/{id}        cancel queued/running     → 200 JobStatus
//	GET    /v1/workers            registered workers        → 200 [WorkerInfo]
//	GET    /v1/healthz            liveness + drain state    → 200/503
//	GET    /v1/metrics            plain-text counters       → 200
//
// Errors are {"error": "..."} JSON with the obvious codes: 400 bad
// spec (undecodable, past the grid-size or horizon limit, or repeating
// an axis value), 404 unknown job or route, 405 known route asked with
// another method (with an Allow header), 409 result not ready, 429
// queue full, 503 draining. A path that is not clean (a doubled slash,
// a dot segment) is redirected with 301 to its cleaned form. Result
// bytes are exactly the engine's WriteJSON/WriteCSV output —
// byte-identical to a serial local run of the same grid.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	allow := map[string][]string{}
	handle := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+path, h)
		if method == http.MethodGet {
			allow[path] = append(allow[path], http.MethodHead)
		}
		allow[path] = append(allow[path], method)
	}
	handle("POST", "/v1/sweeps", s.handleSubmit)
	handle("GET", "/v1/sweeps", s.handleList)
	handle("GET", "/v1/sweeps/{id}", s.handleStatus)
	handle("GET", "/v1/sweeps/{id}/result", s.handleResult)
	handle("DELETE", "/v1/sweeps/{id}", s.handleCancel)
	handle("GET", "/v1/workers", s.handleWorkers)
	handle("GET", "/v1/healthz", s.handleHealthz)
	handle("GET", "/v1/metrics", s.handleMetrics)
	// The mux's own 404 and 405 replies are plain text; these
	// method-less patterns, less specific than every route above,
	// answer in the error envelope instead.
	for path, methods := range allow {
		allowed := strings.Join(methods, ", ")
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", allowed)
			writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: fmt.Sprintf("method %s not allowed (allow %s)", r.Method, allowed)})
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("no route %s", r.URL.Path)})
	})
	return mux
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the error envelope.
type apiError struct {
	Error string `json:"error"`
}

// writeErr maps a service error to its status code and envelope.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadSpec):
		code = http.StatusBadRequest
	case errors.Is(err, ErrUnknownJob):
		code = http.StatusNotFound
	case errors.Is(err, ErrNotFinished):
		code = http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

// decodeSpec decodes a submitted spec body, refusing unknown fields.
func decodeSpec(body io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad spec: %v", err)})
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	store, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		store.WriteJSON(w)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		store.WriteCSV(w)
	default:
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("unknown format %q (json or csv)", format)})
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeErr(w, err)
		return
	}
	st, err := s.Status(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleWorkers(w http.ResponseWriter, r *http.Request) {
	var workers []WorkerInfo
	if s.cfg.Registry != nil {
		workers = s.cfg.Registry.Workers()
	}
	if workers == nil {
		workers = []WorkerInfo{}
	}
	writeJSON(w, http.StatusOK, workers)
}

// healthz reports liveness; a draining daemon answers 503 so load
// balancers stop routing submissions to it while running grids
// finish.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, health{Status: "draining", Draining: true})
		return
	}
	writeJSON(w, http.StatusOK, health{Status: "ok"})
}

// handleMetrics emits plain-text counters in the Prometheus exposition
// idiom (no client library — the format is just lines).
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	states := map[string]int{}
	var cells int
	var sum dist.Audit
	for _, j := range s.Jobs() {
		states[j.State]++
		cells += j.Done
		sum.CacheHits += j.CacheHits
		sum.CachePrefixHits += j.CachePrefixHits
		sum.CacheMisses += j.CacheMisses
		sum.Requeues += j.Requeues
		sum.Quarantined += j.Quarantined
		sum.FailedCells += j.FailedCells
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, st := range []string{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "autofl_sweepd_jobs{state=%q} %d\n", st, states[st])
	}
	fmt.Fprintf(w, "autofl_sweepd_cells_done_total %d\n", cells)
	fmt.Fprintf(w, "autofl_sweepd_cache_hits_total %d\n", sum.CacheHits)
	fmt.Fprintf(w, "autofl_sweepd_cache_prefix_hits_total %d\n", sum.CachePrefixHits)
	fmt.Fprintf(w, "autofl_sweepd_cache_misses_total %d\n", sum.CacheMisses)
	fmt.Fprintf(w, "autofl_sweepd_requeues_total %d\n", sum.Requeues)
	fmt.Fprintf(w, "autofl_sweepd_quarantined_total %d\n", sum.Quarantined)
	fmt.Fprintf(w, "autofl_sweepd_failed_cells_total %d\n", sum.FailedCells)
	fmt.Fprintf(w, "autofl_sweepd_journal_resumed_total %d\n", s.ResumedJobs())
	workers, evictions := 0, 0
	if s.cfg.Registry != nil {
		workers = s.cfg.Registry.Len()
		evictions = s.cfg.Registry.Evictions()
	}
	fmt.Fprintf(w, "autofl_sweepd_workers %d\n", workers)
	fmt.Fprintf(w, "autofl_sweepd_evictions_total %d\n", evictions)
	drain := 0
	if s.Draining() {
		drain = 1
	}
	fmt.Fprintf(w, "autofl_sweepd_draining %d\n", drain)
}
