package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// sse.go is the one Server-Sent-Events writer in the repo: the job
// event stream (GET /v1/jobs/{id}/events) and the campaign progress
// stream (GET /v1/campaigns/{id}/events) both serve an EventLog, so
// wire framing, replay-then-follow semantics, and the idle-stream
// heartbeat behave identically on every endpoint.

// Serve streams the log as Server-Sent Events, each event's JSON as
// the "data:" of an "event:" named by its SSEName: it replays
// everything logged so far, then follows live until the log closes
// (terminal event emitted) or the client disconnects.
//
// When heartbeat is positive, an idle stream (no event for a full
// heartbeat interval) emits a `: heartbeat` comment line and flushes
// it, so proxies and load balancers with read-idle timeouts do not
// sever long-lived watches (a campaign can sit minutes between point
// completions). Comments are invisible to EventSource clients by
// specification. Zero or negative disables heartbeats.
func (l *EventLog[E]) Serve(w http.ResponseWriter, r *http.Request, heartbeat time.Duration) {
	fl, ok := w.(http.Flusher)
	if !ok {
		HTTPError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	var beat *time.Timer
	var beatC <-chan time.Time
	if heartbeat > 0 {
		beat = time.NewTimer(heartbeat)
		beatC = beat.C
		defer beat.Stop()
	}

	idx := 0
	for {
		events, closed, wake := l.After(idx)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.SSEName(), data)
		}
		idx += len(events)
		if len(events) > 0 {
			fl.Flush()
			if beat != nil {
				// Restart the idle clock: a real event is a liveness
				// signal, so the next heartbeat is due a full interval
				// from now.
				if !beat.Stop() {
					select {
					case <-beat.C:
					default:
					}
				}
				beat.Reset(heartbeat)
			}
		}
		if closed {
			return
		}
		select {
		case <-wake:
		case <-beatC:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
			beat.Reset(heartbeat)
		case <-r.Context().Done():
			return
		}
	}
}
