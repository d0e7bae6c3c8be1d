package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/core"
	"repro/internal/experiments"
)

// jobView is the JSON shape of one job in API responses.
type jobView struct {
	ID     string  `json:"id"`
	State  State   `json:"state"`
	Digest string  `json:"digest"`
	Spec   JobSpec `json:"spec"`
	Error  string  `json:"error,omitempty"`
}

func viewOf(j *Job) jobView {
	return jobView{ID: j.ID, State: j.State(), Digest: j.Digest(), Spec: j.Spec, Error: j.Err()}
}

// jobsPage is the GET /v1/jobs response: one page of job views plus
// the cursor for the next page ("" when this page is the last).
type jobsPage struct {
	Jobs []jobView `json:"jobs"`
	Next string    `json:"next,omitempty"`
}

// Jobs-listing pagination bounds.
const (
	defaultJobsPageLimit = 100
	maxJobsPageLimit     = 500
)

// Handler serves the greenvizd API for a manager:
//
//	POST   /v1/jobs             submit a JobSpec; 202 with the job view
//	GET    /v1/jobs             list jobs in submission order (?limit=&after= paginate)
//	GET    /v1/jobs/{id}        one job's status
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/report the deterministic report bytes (409 until done)
//	GET    /v1/jobs/{id}/events live progress over SSE (replays, then follows)
//	GET    /v1/experiments      the experiment registry
//	GET    /v1/pipelines        the pipeline registry
//	GET    /metrics             plain-text counters
//	GET    /debug/pprof/...     runtime profiles
//
// Submit errors map to status codes: invalid spec 400, queue full 429,
// draining 503. The returned mux is open for composition: the daemon
// mounts the campaign API (internal/campaign) beside these routes.
func Handler(m *Manager) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// A spec is a few hundred bytes; cap the body so an oversized
		// POST can't allocate unboundedly.
		r.Body = http.MaxBytesReader(w, r.Body, m.opts.MaxBodyBytes)
		var spec JobSpec
		if err := DecodeStrict(r.Body, &spec); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				HTTPError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("spec body exceeds %d bytes", tooBig.Limit))
				return
			}
			HTTPError(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
			return
		}
		job, err := m.Submit(spec)
		if err != nil {
			var bad *BadSpecError
			switch {
			case errors.As(err, &bad):
				HTTPError(w, http.StatusBadRequest, err)
			case errors.Is(err, ErrQueueFull):
				HTTPError(w, http.StatusTooManyRequests, err)
			case errors.Is(err, ErrDraining):
				HTTPError(w, http.StatusServiceUnavailable, err)
			default:
				HTTPError(w, http.StatusInternalServerError, err)
			}
			return
		}
		WriteJSON(w, http.StatusAccepted, viewOf(job))
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// A campaign can create hundreds of jobs, so the listing is
		// paginated: ?limit= caps the page (default 100, max 500) and
		// ?after= resumes past a job ID. Jobs list in submission order
		// and IDs are monotonic, so (page, next) is deterministic for a
		// fixed job table.
		limit := defaultJobsPageLimit
		if s := r.URL.Query().Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n <= 0 {
				HTTPError(w, http.StatusBadRequest, fmt.Errorf("limit %q must be a positive integer", s))
				return
			}
			limit = n
		}
		if limit > maxJobsPageLimit {
			limit = maxJobsPageLimit
		}
		jobs, next := m.JobsPage(r.URL.Query().Get("after"), limit)
		views := make([]jobView, 0, len(jobs))
		for _, j := range jobs {
			views = append(views, viewOf(j))
		}
		WriteJSON(w, http.StatusOK, jobsPage{Jobs: views, Next: next})
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookup(w, m, r)
		if !ok {
			return
		}
		WriteJSON(w, http.StatusOK, viewOf(job))
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		state, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]State{"state": state})
	})

	mux.HandleFunc("GET /v1/jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookup(w, m, r)
		if !ok {
			return
		}
		body, done := job.Report()
		if !done {
			st := job.State()
			HTTPError(w, http.StatusConflict, fmt.Errorf("job %s is %s, report available once done", job.ID, st))
			return
		}
		if job.Spec.Kind == KindPipeline {
			w.Header().Set("Content-Type", "application/json")
		} else {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		}
		w.Header().Set("X-Job-Digest", job.Digest())
		w.Write(body)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookup(w, m, r)
		if !ok {
			return
		}
		job.Events().Serve(w, r, m.opts.SSEHeartbeat)
	})

	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		type expView struct {
			ID          string `json:"id"`
			Description string `json:"description"`
		}
		var out []expView
		for _, e := range experiments.Registry() {
			out = append(out, expView{e.ID, e.Description})
		}
		WriteJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /v1/pipelines", func(w http.ResponseWriter, r *http.Request) {
		type pipeView struct {
			Flag      string `json:"flag"`
			Name      string `json:"name"`
			Clustered bool   `json:"clustered"`
		}
		var out []pipeView
		for _, p := range core.Pipelines() {
			out = append(out, pipeView{p.Flag(), p.String(), p.Clustered()})
		}
		WriteJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		m.Metrics.WriteTo(w, m.QueueDepth(), m.CacheEntries(), m.JobCount(), m.StoreStats())
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// lookup resolves {id}, writing the 404 itself on a miss.
func lookup(w http.ResponseWriter, m *Manager, r *http.Request) (*Job, bool) {
	job, err := m.Job(r.PathValue("id"))
	if err != nil {
		HTTPError(w, http.StatusNotFound, err)
		return nil, false
	}
	return job, true
}

// WriteJSON writes v as an indented JSON response. The job API and
// the campaign API both answer through it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// HTTPError writes a JSON error body, {"error": "..."}, with the given
// status.
func HTTPError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}
