package campaign

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/service"
)

// maxSpecBytes caps POST /v1/campaigns bodies. Campaign specs are a
// few KiB even with every axis populated; 1 MiB leaves generous slack.
const maxSpecBytes = 1 << 20

// campaignView is the JSON shape of one campaign in API responses.
type campaignView struct {
	ID        string        `json:"id"`
	Name      string        `json:"name"`
	State     service.State `json:"state"`
	Objective string        `json:"objective"`
	Digest    string        `json:"digest"`
	Points    int           `json:"points"`
	Done      int           `json:"done"`
	Failed    int           `json:"failed"`
	Deduped   int           `json:"deduped"`
	// PointStates is filled on the detail view only.
	PointStates []pointView `json:"point_states,omitempty"`
}

type pointView struct {
	Index   int           `json:"index"`
	Label   string        `json:"label"`
	Digest  string        `json:"digest"`
	State   service.State `json:"state,omitempty"`
	Error   string        `json:"error,omitempty"`
	Deduped bool          `json:"deduped,omitempty"`
}

func viewOf(c *Campaign, detail bool) campaignView {
	done, failed, deduped := c.counts()
	v := campaignView{
		ID:        c.ID,
		Name:      c.Spec.Name,
		State:     c.State(),
		Objective: c.Spec.Objective,
		Digest:    c.Digest,
		Points:    len(c.Points),
		Done:      done,
		Failed:    failed,
		Deduped:   deduped,
	}
	if detail {
		c.mu.Lock()
		for i, p := range c.Points {
			v.PointStates = append(v.PointStates, pointView{
				Index:   i,
				Label:   p.Label,
				Digest:  p.Digest,
				State:   c.outcomes[i].State,
				Error:   c.outcomes[i].Err,
				Deduped: c.outcomes[i].Deduped,
			})
		}
		c.mu.Unlock()
	}
	return v
}

// Register mounts the campaign API on a mux (the one service.Handler
// returns):
//
//	POST /v1/campaigns              submit a Spec; 202 with the campaign view
//	                                (200 when the content address is already known)
//	GET  /v1/campaigns              list campaigns in acceptance order
//	GET  /v1/campaigns/{id}         one campaign's status with per-point states
//	GET  /v1/campaigns/{id}/report  the deterministic report (409 until done)
//	GET  /v1/campaigns/{id}/events  live progress over SSE (replays, then follows)
//
// Campaigns share the job manager's SSE heartbeat setting, so proxies
// see the same liveness contract on both stream families.
func (m *Manager) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxSpecBytes)
		var spec Spec
		if err := service.DecodeStrict(r.Body, &spec); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				service.HTTPError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("campaign spec exceeds %d bytes", tooBig.Limit))
				return
			}
			service.HTTPError(w, http.StatusBadRequest, fmt.Errorf("decode campaign spec: %w", err))
			return
		}
		c, known, err := m.start(spec)
		if err != nil {
			var bad *service.BadSpecError
			if errors.As(err, &bad) {
				service.HTTPError(w, http.StatusBadRequest, err)
			} else {
				service.HTTPError(w, http.StatusServiceUnavailable, err)
			}
			return
		}
		status := http.StatusAccepted
		if known {
			status = http.StatusOK
		}
		service.WriteJSON(w, status, viewOf(c, false))
	})

	mux.HandleFunc("GET /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		out := []campaignView{}
		for _, c := range m.List() {
			out = append(out, viewOf(c, false))
		}
		service.WriteJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		c, ok := m.lookup(w, r)
		if !ok {
			return
		}
		service.WriteJSON(w, http.StatusOK, viewOf(c, true))
	})

	mux.HandleFunc("GET /v1/campaigns/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		c, ok := m.lookup(w, r)
		if !ok {
			return
		}
		body, done := c.Report()
		if !done {
			service.HTTPError(w, http.StatusConflict,
				fmt.Errorf("campaign %s is %s, report available once done", c.ID, c.State()))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Campaign-Digest", c.Digest)
		w.Write(body)
	})

	mux.HandleFunc("GET /v1/campaigns/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		c, ok := m.lookup(w, r)
		if !ok {
			return
		}
		c.log.Serve(w, r, m.jobs.SSEHeartbeat())
	})
}

// lookup resolves {id}, writing the 404 itself on a miss.
func (m *Manager) lookup(w http.ResponseWriter, r *http.Request) (*Campaign, bool) {
	c, err := m.Get(r.PathValue("id"))
	if err != nil {
		service.HTTPError(w, http.StatusNotFound, err)
		return nil, false
	}
	return c, true
}
