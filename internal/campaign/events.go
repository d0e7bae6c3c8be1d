package campaign

// Event is one campaign SSE payload: the sweep's lifecycle ("expanded"
// with the point count, terminal "done"/"failed"/"canceled") plus one
// "point" event per point as it reaches a terminal state.
type Event struct {
	// Seq numbers events from 1 within one campaign.
	Seq int `json:"seq"`
	// Type is "expanded", "point", "done", "failed", or "canceled".
	Type string `json:"type"`
	// Points is the expansion size on "expanded" events.
	Points int `json:"points,omitempty"`
	// Point and Label identify the point on "point" events (Label is
	// the identity; a zero index is omitted from the JSON).
	Point int    `json:"point,omitempty"`
	Label string `json:"label,omitempty"`
	// State is the point's terminal state on "point" events.
	State string `json:"state,omitempty"`
	// Deduped reports that the point was served by an existing
	// execution (singleflight, cache, or store) instead of a fresh run.
	Deduped bool `json:"deduped,omitempty"`
	// Error carries the failure reason on "point" and "failed" events.
	Error string `json:"error,omitempty"`
}

// Terminal reports whether this event closes the stream.
func (e Event) Terminal() bool {
	switch e.Type {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// WithSeq returns the event numbered seq.
func (e Event) WithSeq(seq int) Event { e.Seq = seq; return e }

// SSEName is the event's SSE "event:" name.
func (e Event) SSEName() string { return e.Type }
