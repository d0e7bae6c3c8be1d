package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"repro/internal/service"
)

// ErrNoSuchCampaign is returned for unknown campaign IDs.
var ErrNoSuchCampaign = errors.New("campaign: no such campaign")

// Campaign is one accepted sweep: its normalized spec, the expanded
// points, the live point outcomes, and — once terminal — the rendered
// report.
type Campaign struct {
	ID     string
	Digest string
	Spec   Spec // normalized
	Points []Point

	log *service.EventLog[Event]

	mu       sync.Mutex
	state    service.State
	outcomes []pointOutcome
	report   []byte
	// restored marks a campaign rebuilt from a persisted state record
	// (it never ran in this process; its report came from the store).
	restored bool
}

// State returns the campaign's lifecycle position.
func (c *Campaign) State() service.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Report returns the rendered report bytes and true once the campaign
// is done.
func (c *Campaign) Report() ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != service.StateDone {
		return nil, false
	}
	return c.report, true
}

// Events exposes the campaign's event log for SSE streaming and the
// CLI's progress narration.
func (c *Campaign) Events() *service.EventLog[Event] { return c.log }

// Wait blocks until the campaign is terminal or ctx expires, returning
// the campaign state either way.
func (c *Campaign) Wait(ctx context.Context) service.State {
	c.log.Wait(ctx, func() bool { return c.State().Terminal() })
	return c.State()
}

// counts tallies the point outcomes for views and listings.
func (c *Campaign) counts() (done, failed, deduped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, o := range c.outcomes {
		if o.State == service.StateDone {
			done++
		}
		if o.State == service.StateFailed {
			failed++
		}
		if o.Deduped {
			deduped++
		}
	}
	return
}

// Options configures a campaign Manager.
type Options struct {
	// PointWorkers bounds how many points a campaign keeps in flight at
	// once (default 4). The job manager's own worker pool still bounds
	// actual execution; this only caps outstanding submissions so one
	// campaign cannot monopolize the submit queue.
	PointWorkers int
}

// Manager runs campaigns against a service.Manager. Points are
// submitted as ordinary jobs, so they share the daemon's worker pool,
// content-addressed dedup, and durable result store; the campaign
// layer adds expansion, aggregation, persistence of sweep state, and
// its own progress stream.
type Manager struct {
	jobs *service.Manager
	opts Options

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu    sync.Mutex
	byID  map[string]*Campaign
	order []string // campaign IDs in acceptance order
}

// NewManager wraps a job manager (which stays owned by the caller).
func NewManager(jobs *service.Manager, opts Options) *Manager {
	if opts.PointWorkers <= 0 {
		opts.PointWorkers = 4
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		jobs:   jobs,
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		byID:   map[string]*Campaign{},
	}
}

// Close stops accepting campaigns, cancels in-flight point waits, and
// blocks until every campaign goroutine has exited. Call it before
// shutting down the job manager.
func (m *Manager) Close() {
	m.cancel()
	m.wg.Wait()
}

// Get looks a campaign up by ID.
func (m *Manager) Get(id string) (*Campaign, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.byID[id]
	if !ok {
		return nil, ErrNoSuchCampaign
	}
	return c, nil
}

// List returns all campaigns in acceptance order.
func (m *Manager) List() []*Campaign {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Campaign, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.byID[id])
	}
	return out
}

// Start accepts a campaign spec: it normalizes, expands, and
// content-addresses the sweep, then either returns the already-known
// campaign with that address (running or finished — idempotent
// resubmit), restores a finished campaign from the persisted state
// record (surviving restarts without re-running a single point), or
// launches the sweep. Point executions dedupe through the job
// manager's caches, so resubmitting a half-finished campaign after a
// crash re-runs only the points whose reports were lost.
func (m *Manager) Start(spec Spec) (*Campaign, error) {
	c, _, err := m.start(spec)
	return c, err
}

// start is Start that also reports whether the campaign's address was
// already in the table. The lookup and the registration share one
// critical section, so of N concurrent first submits of a spec exactly
// one sees known == false. A campaign restored from its persisted
// state is new to the table, so it is not known.
func (m *Manager) start(spec Spec) (c *Campaign, known bool, err error) {
	norm, err := spec.Normalized()
	if err != nil {
		return nil, false, &service.BadSpecError{Err: err}
	}
	points, err := Expand(norm)
	if err != nil {
		return nil, false, &service.BadSpecError{Err: err}
	}
	digest := Digest(norm, points)
	id := IDFromDigest(digest)

	m.mu.Lock()
	if c, ok := m.byID[id]; ok {
		m.mu.Unlock()
		return c, true, nil
	}
	if m.ctx.Err() != nil {
		m.mu.Unlock()
		return nil, false, errors.New("campaign: manager closed")
	}
	c = &Campaign{
		ID:       id,
		Digest:   digest,
		Spec:     norm,
		Points:   points,
		log:      service.NewEventLog[Event](),
		state:    service.StateRunning,
		outcomes: make([]pointOutcome, len(points)),
	}
	if rec, ok := m.loadState(digest); ok && rec.Status == service.StateDone {
		c.state = service.StateDone
		c.report = []byte(rec.Report)
		c.restored = true
		for i := range c.outcomes {
			if i < len(rec.Points) {
				c.outcomes[i] = pointOutcome{
					State:   rec.Points[i].State,
					Err:     rec.Points[i].Error,
					Deduped: rec.Points[i].Deduped,
				}
			}
		}
		c.log.Emit(Event{Type: "expanded", Points: len(points)})
		c.log.Emit(Event{Type: "done"})
		m.register(c)
		m.mu.Unlock()
		return c, false, nil
	}
	m.register(c)
	m.mu.Unlock()

	m.jobs.Metrics.CampaignsActive.Add(1)
	m.wg.Add(1)
	go m.run(c)
	return c, false, nil
}

// register adds a campaign to the table; m.mu must be held.
func (m *Manager) register(c *Campaign) {
	m.byID[c.ID] = c
	m.order = append(m.order, c.ID)
}

// run drives one campaign to a terminal state.
func (m *Manager) run(c *Campaign) {
	defer m.wg.Done()
	defer m.jobs.Metrics.CampaignsActive.Add(-1)

	c.log.Emit(Event{Type: "expanded", Points: len(c.Points)})

	sem := make(chan struct{}, m.opts.PointWorkers)
	var pwg sync.WaitGroup
	for i := range c.Points {
		if m.ctx.Err() != nil {
			c.recordOutcome(i, pointOutcome{State: service.StateCanceled, Err: "campaign manager closed"})
			continue
		}
		sem <- struct{}{}
		pwg.Add(1)
		go func(i int) {
			defer pwg.Done()
			defer func() { <-sem }()
			m.runPoint(c, i)
		}(i)
	}
	pwg.Wait()

	// Terminal state: done when at least one point completed (failed
	// points are annotated in the report — a sweep with a dead corner
	// still answers the greenness question for the rest), failed when
	// nothing did, canceled when the manager shut down mid-sweep.
	done, _, _ := c.counts()
	var final service.State
	switch {
	case m.ctx.Err() != nil && done < len(c.Points):
		final = service.StateCanceled
	case done > 0:
		final = service.StateDone
	default:
		final = service.StateFailed
	}

	var report []byte
	if final == service.StateDone {
		c.mu.Lock()
		report = renderReport(c.Spec, c.Digest, c.Points, c.outcomes)
		c.mu.Unlock()
	}
	// The state record lands before the state turns terminal, so
	// whoever sees the campaign finished finds it in the store.
	m.persistState(c, final, report)
	c.mu.Lock()
	c.state, c.report = final, report
	c.mu.Unlock()

	switch final {
	case service.StateDone:
		m.jobs.Metrics.CampaignsCompleted.Add(1)
		c.log.Emit(Event{Type: "done"})
	case service.StateCanceled:
		c.log.Emit(Event{Type: "canceled"})
	default:
		c.log.Emit(Event{Type: "failed", Error: "no point completed"})
	}
}

// runPoint submits one point and waits for its terminal state,
// retrying with backoff while the submit queue is full.
func (m *Manager) runPoint(c *Campaign, i int) {
	spec := c.Points[i].Spec
	var job *service.Job
	backoff := 2 * time.Millisecond
	for {
		var err error
		job, err = m.jobs.Submit(spec)
		if err == nil {
			break
		}
		if errors.Is(err, service.ErrQueueFull) {
			select {
			case <-time.After(backoff):
			case <-m.ctx.Done():
				c.recordOutcome(i, pointOutcome{State: service.StateCanceled, Err: "campaign manager closed"})
				return
			}
			if backoff < 250*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		// Draining, bad spec (should have been caught at expansion), or
		// manager shut down: the point fails, the sweep continues.
		c.recordOutcome(i, pointOutcome{State: service.StateFailed, Err: err.Error()})
		return
	}

	deduped := job.Deduped()
	if deduped {
		m.jobs.Metrics.CampaignPointsDeduped.Add(1)
	} else {
		m.jobs.Metrics.CampaignPointsRun.Add(1)
	}

	st := job.Wait(m.ctx)
	out := pointOutcome{State: st, Deduped: deduped}
	switch st {
	case service.StateDone:
		report, ok := job.Report()
		if !ok {
			out.State = service.StateFailed
			out.Err = "report unavailable"
			break
		}
		r, err := decodeResult(report)
		if err != nil {
			out.State = service.StateFailed
			out.Err = err.Error()
			break
		}
		out.Result = r
	case service.StateFailed:
		out.Err = job.Err()
	case service.StateCanceled:
		out.Err = "canceled"
	default:
		// Wait returned because m.ctx expired mid-run.
		out.State = service.StateCanceled
		out.Err = "campaign manager closed"
	}
	c.recordOutcome(i, out)
}

// recordOutcome stores a point's terminal outcome and emits its event.
func (c *Campaign) recordOutcome(i int, out pointOutcome) {
	c.mu.Lock()
	c.outcomes[i] = out
	c.mu.Unlock()
	c.log.Emit(Event{
		Type:    "point",
		Point:   i,
		Label:   c.Points[i].Label,
		State:   string(out.State),
		Deduped: out.Deduped,
		Error:   out.Err,
	})
}

// stateRecord is the JSON body persisted to the result store under
// stateKey(digest): enough to restore a finished campaign (including
// its exact report bytes) and to show point statuses after a restart.
type stateRecord struct {
	Version   int           `json:"version"`
	ID        string        `json:"id"`
	Digest    string        `json:"digest"`
	Name      string        `json:"name"`
	Objective string        `json:"objective"`
	Status    service.State `json:"status"`
	Points    []pointRecord `json:"points"`
	Report    string        `json:"report,omitempty"`
}

type pointRecord struct {
	Label   string        `json:"label"`
	Digest  string        `json:"digest"`
	State   service.State `json:"state,omitempty"`
	Error   string        `json:"error,omitempty"`
	Deduped bool          `json:"deduped,omitempty"`
}

// persistState writes the campaign's state record — terminal status
// and report — to the durable store (no-op without one). Best-effort
// like job-report persistence: a failed write costs a re-aggregation
// after restart, never correctness — point reports are persisted
// independently by the job manager, so a resumed campaign re-runs only
// what the store lost.
func (m *Manager) persistState(c *Campaign, status service.State, report []byte) {
	store := m.jobs.Store()
	if store == nil {
		return
	}
	c.mu.Lock()
	rec := stateRecord{
		Version:   1,
		ID:        c.ID,
		Digest:    c.Digest,
		Name:      c.Spec.Name,
		Objective: c.Spec.Objective,
		Status:    status,
		Report:    string(report),
	}
	for i, p := range c.Points {
		rec.Points = append(rec.Points, pointRecord{
			Label:   p.Label,
			Digest:  p.Digest,
			State:   c.outcomes[i].State,
			Error:   c.outcomes[i].Err,
			Deduped: c.outcomes[i].Deduped,
		})
	}
	c.mu.Unlock()
	body, err := json.Marshal(rec)
	if err != nil {
		return
	}
	store.Put(stateKey(c.Digest), body)
}

// loadState reads a persisted state record for the campaign digest.
func (m *Manager) loadState(digest string) (stateRecord, bool) {
	store := m.jobs.Store()
	if store == nil {
		return stateRecord{}, false
	}
	body, ok := store.Get(stateKey(digest))
	if !ok {
		return stateRecord{}, false
	}
	var rec stateRecord
	if err := json.Unmarshal(body, &rec); err != nil || rec.Version != 1 || rec.Digest != digest {
		return stateRecord{}, false
	}
	return rec, true
}
