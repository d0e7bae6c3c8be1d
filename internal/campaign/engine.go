package campaign

import (
	"context"
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
// layer adds expansion, aggregation, and its own progress stream. It
// persists nothing of its own: a campaign's report is a function of
// its spec and its points' reports, which the job store already keeps.
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
// resubmit) or launches the sweep. Point executions dedupe through the
// job manager's caches, so resubmitting a campaign after a restart
// serves every point whose report the store kept without running it,
// and re-runs only the points whose reports were lost.
func (m *Manager) Start(spec Spec) (*Campaign, error) {
	c, _, err := m.start(spec)
	return c, err
}

// start is Start that also reports whether the campaign's address was
// already in the table. The lookup and the registration share one
// critical section, so of N concurrent first submits of a spec exactly
// one sees known == false.
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
	m.byID[id] = c
	m.order = append(m.order, id)
	m.mu.Unlock()

	m.jobs.Metrics.CampaignsActive.Add(1)
	m.wg.Add(1)
	go m.run(c)
	return c, false, nil
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

	c.mu.Lock()
	if final == service.StateDone {
		c.report = renderReport(c.Spec, c.Digest, c.Points, c.outcomes)
	}
	c.state = final
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
