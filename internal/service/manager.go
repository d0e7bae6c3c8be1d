package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resultstore"
)

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull is backpressure: the submit queue is at capacity.
	ErrQueueFull = errors.New("service: submit queue full")
	// ErrDraining rejects submits during graceful shutdown.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrNoSuchJob is returned for unknown job IDs.
	ErrNoSuchJob = errors.New("service: no such job")
)

// BadSpecError wraps a spec validation failure (HTTP 400).
type BadSpecError struct{ Err error }

func (e *BadSpecError) Error() string { return e.Err.Error() }
func (e *BadSpecError) Unwrap() error { return e.Err }

// State is a job's lifecycle position.
type State string

// The job states. A job is terminal in StateDone, StateFailed, and
// StateCanceled.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// execution is one underlying run: the unit the cache content-
// addresses and the worker pool executes. Any number of jobs attach to
// one execution (singleflight); they share its event log and report
// bytes.
type execution struct {
	digest string
	spec   JobSpec // normalized
	log    *EventLog[Event]
	ctx    context.Context
	cancel context.CancelFunc

	mu         sync.Mutex
	state      State
	report     []byte
	err        error
	refs       int       // attached, un-canceled jobs
	finishedAt time.Time // when the execution went terminal
}

func (e *execution) getState() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state
}

// Job is one accepted submission. Deduped jobs point at a shared
// execution; a job canceled while others remain attached detaches
// without stopping the run.
type Job struct {
	ID   string
	Spec JobSpec // normalized
	exec *execution

	// deduped records that Submit attached this job to an execution
	// that already existed (in-flight singleflight, memory cache, or
	// durable store) instead of starting a fresh run. The campaign
	// engine reads it to count run-vs-deduped points.
	deduped bool

	canceled   atomic.Bool
	canceledAt atomic.Int64 // unix nanos, set before canceled flips
}

// Deduped reports whether this submission was served by an existing
// execution (singleflight attach, cache hit, or store hit) rather than
// starting a run of its own.
func (j *Job) Deduped() bool { return j.deduped }

// State returns the job's effective state: its execution's, unless
// this job was individually canceled.
func (j *Job) State() State {
	if j.canceled.Load() {
		return StateCanceled
	}
	return j.exec.getState()
}

// Digest returns the job's content address.
func (j *Job) Digest() string { return j.exec.digest }

// Err returns the execution error for failed jobs ("" otherwise).
func (j *Job) Err() string {
	j.exec.mu.Lock()
	defer j.exec.mu.Unlock()
	if j.exec.err != nil {
		return j.exec.err.Error()
	}
	return ""
}

// Report returns the report bytes and true once the job is done.
func (j *Job) Report() ([]byte, bool) {
	j.exec.mu.Lock()
	defer j.exec.mu.Unlock()
	if j.exec.state != StateDone {
		return nil, false
	}
	return j.exec.report, true
}

// Events exposes the job's event log for SSE streaming.
func (j *Job) Events() *EventLog[Event] { return j.exec.log }

// Wait blocks until the job reaches a terminal state or ctx expires,
// returning the job's state either way; a job whose execution was
// already terminal (cache or store hit) returns immediately.
func (j *Job) Wait(ctx context.Context) State {
	j.exec.log.Wait(ctx, func() bool { return j.State().Terminal() })
	return j.State()
}

// terminalAt returns when the job reached a terminal state, and
// whether it has: a job canceled individually uses its cancel time,
// otherwise its execution's finish time. Retention GC prunes on this.
func (j *Job) terminalAt() (time.Time, bool) {
	if j.canceled.Load() {
		return time.Unix(0, j.canceledAt.Load()), true
	}
	e := j.exec
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.state.Terminal() {
		return time.Time{}, false
	}
	return e.finishedAt, true
}

// Options sizes a Manager.
type Options struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the submit queue; a full queue rejects with
	// ErrQueueFull (default 64).
	QueueDepth int
	// MaxBodyBytes caps POST /v1/jobs request bodies; oversized
	// submissions are rejected with 413 (default 1 MiB).
	MaxBodyBytes int64
	// Store, when non-nil, persists finished reports to disk: submits
	// whose digest the store holds are served without re-executing
	// (surviving restarts), and Shutdown closes the store after the
	// pool drains. The manager owns the store once handed over.
	Store *resultstore.Store
	// JobRetention bounds the job table: terminal jobs older than
	// this are pruned by a background sweep (their executions stay
	// cached, or on disk via Store). 0 keeps every job forever —
	// the pre-retention behavior. Queued and running jobs are never
	// touched regardless of age.
	JobRetention time.Duration
	// SSEHeartbeat, when positive, makes idle SSE streams (/events on
	// jobs and campaigns) emit a `: heartbeat` comment at this interval
	// so proxies and load balancers don't drop long-lived watches. 0
	// disables heartbeats.
	SSEHeartbeat time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	return o
}

// runFunc executes one normalized spec and returns its report bytes.
// It is a field (not a call) so tests can substitute a controllable
// runner; the default is runSpec.
type runFunc func(ctx context.Context, spec JobSpec, tel *jobTelemetry) ([]byte, error)

// Manager owns the service state: the job table, the content-
// addressed execution cache, the bounded submit queue, and the worker
// pool. All methods are safe for concurrent use.
type Manager struct {
	opts    Options
	run     runFunc
	Metrics Metrics

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	order    []string // job IDs in submission order
	cache    map[string]*execution
	nextID   int

	queue  chan *execution
	wg     sync.WaitGroup
	gcStop chan struct{} // non-nil iff the retention sweeper runs
}

// NewManager starts a manager, its worker pool, and — when a
// retention horizon is configured — the background job-table sweeper.
func NewManager(opts Options) *Manager {
	m := &Manager{
		opts:  opts.withDefaults(),
		run:   runSpec,
		jobs:  map[string]*Job{},
		cache: map[string]*execution{},
	}
	m.Metrics.startedAt = time.Now()
	m.queue = make(chan *execution, m.opts.QueueDepth)
	for i := 0; i < m.opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	if m.opts.JobRetention > 0 {
		m.gcStop = make(chan struct{})
		m.wg.Add(1)
		go m.gcLoop()
	}
	return m
}

// Submit accepts a job spec: it normalizes and content-addresses it,
// then either attaches the new job to an existing execution (cache
// hit or in-flight singleflight) or enqueues a fresh execution.
// Returns ErrDraining during shutdown, a BadSpecError for invalid
// specs, and ErrQueueFull when backpressure applies.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	norm, err := spec.Normalized()
	if err != nil {
		m.Metrics.Rejected.Add(1)
		return nil, &BadSpecError{err}
	}
	digest := norm.DigestNormalized()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.Metrics.Rejected.Add(1)
		return nil, ErrDraining
	}

	if e, ok := m.cache[digest]; ok {
		// Re-check the execution's state under its lock before
		// attaching: finish() marks an execution failed/canceled under
		// e.mu and only then takes m.mu to evict the digest, so a
		// submit landing in that window would otherwise attach to the
		// doomed execution and observe its stale error even though an
		// identical resubmit is supposed to retry. A terminal non-done
		// entry here is exactly that window. So is an unfinished one
		// whose context Cancel has canceled: it ends canceled at its
		// next cancellation point (a done execution's context is always
		// canceled, by finish). Drop it and fall through to a fresh
		// execution (finish's own eviction is guarded by an identity
		// check, so it won't delete the replacement).
		e.mu.Lock()
		stale := e.state == StateFailed || e.state == StateCanceled ||
			(e.state != StateDone && e.ctx.Err() != nil)
		if !stale {
			e.refs++
			done := e.state == StateDone
			e.mu.Unlock()
			job := m.newJobLocked(norm, e)
			job.deduped = true
			if done {
				m.Metrics.CacheHits.Add(1)
			} else {
				m.Metrics.Deduped.Add(1)
			}
			m.Metrics.Submitted.Add(1)
			return job, nil
		}
		e.mu.Unlock()
		delete(m.cache, digest)
	}

	// Not in memory: the durable store may hold the report from an
	// earlier run (possibly a previous process). A hit synthesizes an
	// already-done execution, so restarts serve warm results without
	// re-executing. The store read happens under m.mu — record bodies
	// are small report text, and holding the lock keeps the probe
	// atomic with cache insertion (no duplicate executions).
	if m.opts.Store != nil {
		if body, ok := m.opts.Store.Get(digest); ok {
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // nothing will run; the execution is born terminal
			e := &execution{
				digest:     digest,
				spec:       norm,
				log:        NewEventLog[Event](),
				ctx:        ctx,
				cancel:     cancel,
				state:      StateDone,
				report:     body,
				refs:       1,
				finishedAt: time.Now(),
			}
			e.log.Emit(Event{Type: "done"})
			m.cache[digest] = e
			job := m.newJobLocked(norm, e)
			job.deduped = true
			m.Metrics.CacheHits.Add(1)
			m.Metrics.Submitted.Add(1)
			return job, nil
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	e := &execution{
		digest: digest,
		spec:   norm,
		log:    NewEventLog[Event](),
		ctx:    ctx,
		cancel: cancel,
		state:  StateQueued,
		refs:   1,
	}
	// queued is logged before the send: once a worker holds e it may
	// log running at any moment. A rejected e is dropped, log and all.
	e.log.Emit(Event{Type: "queued"})
	select {
	case m.queue <- e:
	default:
		cancel()
		m.Metrics.Rejected.Add(1)
		return nil, ErrQueueFull
	}
	m.cache[digest] = e
	job := m.newJobLocked(norm, e)
	m.Metrics.Submitted.Add(1)
	return job, nil
}

// newJobLocked allocates the next job ID; m.mu must be held.
func (m *Manager) newJobLocked(spec JobSpec, e *execution) *Job {
	m.nextID++
	job := &Job{ID: fmt.Sprintf("job-%06d", m.nextID), Spec: spec, exec: e}
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	return job
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNoSuchJob
	}
	return j, nil
}

// Jobs returns all jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// JobsPage returns up to limit jobs in submission order, starting
// after the job with ID after ("" starts at the beginning), plus the
// cursor to pass as after for the following page ("" when this page
// exhausts the table). The order slice is sorted by jobIDLess, so the
// cursor is stable even as retention GC prunes old entries, and a
// cursor naming no job (retired, or between two IDs) resumes at the
// next newer one. limit <= 0 means no limit.
func (m *Manager) JobsPage(after string, limit int) ([]*Job, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := 0
	if after != "" {
		start = sort.Search(len(m.order), func(i int) bool { return !jobIDLess(m.order[i], after) })
		if start < len(m.order) && m.order[start] == after {
			start++
		}
	}
	end := len(m.order)
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	out := make([]*Job, 0, end-start)
	for _, id := range m.order[start:end] {
		out = append(out, m.jobs[id])
	}
	next := ""
	if end < len(m.order) && end > start {
		next = m.order[end-1]
	}
	return out, next
}

// jobIDLess orders job IDs and cursors by sequence number, then byte
// by byte. IDs are "job-%06d" in submission order, so a plain string
// order would put job-1000000 before job-999999; the sequence number
// keeps submission order past six digits.
func jobIDLess(a, b string) bool {
	if sa, sb := jobSeq(a), jobSeq(b); sa != sb {
		return sa < sb
	}
	return a < b
}

// jobSeq is the value of the decimal digits that follow "job-" in a
// job ID or cursor, saturating at math.MaxInt, and 0 if there are
// none.
func jobSeq(id string) int {
	digits, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n := 0
	for i := 0; i < len(digits) && '0' <= digits[i] && digits[i] <= '9'; i++ {
		if n > (math.MaxInt-9)/10 {
			return math.MaxInt
		}
		n = n*10 + int(digits[i]-'0')
	}
	return n
}

// Cancel cancels one job. If other jobs share its execution the run
// continues for them and only this job reports canceled; the last
// attached job aborts the execution (queued executions are skipped by
// the worker, running ones stop at their next stage boundary via the
// observer). Canceling a terminal job is a no-op returning its state.
func (m *Manager) Cancel(id string) (State, error) {
	job, err := m.Job(id)
	if err != nil {
		return "", err
	}
	if st := job.State(); st.Terminal() {
		return st, nil
	}
	job.canceledAt.Store(time.Now().UnixNano()) // before the flag flips, so GC never reads zero
	if job.canceled.CompareAndSwap(false, true) {
		e := job.exec
		e.mu.Lock()
		e.refs--
		last := e.refs <= 0
		e.mu.Unlock()
		if last {
			e.cancel()
		}
	}
	return StateCanceled, nil
}

// QueueDepth reports the submit queue's current length.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// CacheEntries reports the number of content-addressed executions.
func (m *Manager) CacheEntries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cache)
}

// JobCount reports the number of tracked (un-retired) jobs.
func (m *Manager) JobCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// SSEHeartbeat reports the configured idle-stream heartbeat interval
// (0 = disabled), so secondary APIs (campaigns) serve SSE with the
// same liveness contract as the job endpoints.
func (m *Manager) SSEHeartbeat() time.Duration { return m.opts.SSEHeartbeat }

// StoreStats snapshots the durable store's counters (zero without a
// store).
func (m *Manager) StoreStats() resultstore.Stats {
	if m.opts.Store == nil {
		return resultstore.Stats{}
	}
	return m.opts.Store.Stats()
}

// gcLoop periodically prunes terminal jobs past the retention
// horizon. The sweep interval tracks the horizon (a quarter of it,
// clamped) so eviction lag is proportional to the configured window.
func (m *Manager) gcLoop() {
	defer m.wg.Done()
	interval := m.opts.JobRetention / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			m.gc(now)
		case <-m.gcStop:
			return
		}
	}
}

// gc prunes jobs that have been terminal longer than the retention
// horizon, keeping the job table bounded on a long-lived daemon.
// Queued and running jobs are never pruned, whatever their age. Done
// executions left unreferenced by the pruning are dropped from the
// in-memory cache only when the durable store still holds their
// report (so a later identical submit is a store hit, not a re-run);
// without a store the execution cache keeps them, preserving the
// original dedup behavior. Returns the number of jobs retired.
func (m *Manager) gc(now time.Time) int {
	if m.opts.JobRetention <= 0 {
		return 0
	}
	cutoff := now.Add(-m.opts.JobRetention)
	m.mu.Lock()
	defer m.mu.Unlock()
	retired := 0
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if at, terminal := j.terminalAt(); terminal && at.Before(cutoff) {
			delete(m.jobs, id)
			retired++
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
	if retired == 0 {
		return 0
	}
	m.Metrics.Retired.Add(uint64(retired))
	if m.opts.Store != nil {
		referenced := make(map[*execution]bool, len(m.jobs))
		for _, j := range m.jobs {
			referenced[j.exec] = true
		}
		for d, e := range m.cache {
			if !referenced[e] && e.getState() == StateDone && m.opts.Store.Contains(d) {
				delete(m.cache, d)
			}
		}
	}
	return retired
}

// Draining reports whether shutdown has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Shutdown drains the manager: new submits are rejected with
// ErrDraining immediately, queued and running executions finish, the
// retention sweeper stops, and Shutdown returns when the pool is
// idle. If ctx expires first the remaining executions are canceled
// (they stop at their next stage boundary) and ctx's error is
// returned after the pool exits. The durable store is closed last —
// after every in-flight finish() has had its chance to persist — so
// drained work survives to the next boot.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
		if m.gcStop != nil {
			close(m.gcStop)
		}
	}
	m.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		m.mu.Lock()
		for _, e := range m.cache {
			if !e.getState().Terminal() {
				e.cancel()
			}
		}
		m.mu.Unlock()
		<-idle
		err = ctx.Err()
	}
	if m.opts.Store != nil {
		m.opts.Store.Close()
	}
	return err
}

// worker drains the submit queue until Shutdown closes it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for e := range m.queue {
		m.execute(e)
	}
}

// execute runs one execution to a terminal state.
func (m *Manager) execute(e *execution) {
	if e.ctx.Err() != nil {
		m.finish(e, nil, context.Canceled)
		return
	}
	e.mu.Lock()
	e.state = StateRunning
	e.mu.Unlock()
	e.log.Emit(Event{Type: "running"})
	m.Metrics.Running.Add(1)
	m.Metrics.Executions.Add(1)

	report, err := m.safeRun(e)
	m.Metrics.Running.Add(-1)
	m.finish(e, report, err)
}

// safeRun invokes the runner, translating the cancellation sentinel
// (and any runner panic — a misconfigured run must not take the
// daemon down) into an error.
func (m *Manager) safeRun(e *execution) (report []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(jobCanceled); ok || e.ctx.Err() != nil {
				err = context.Canceled
				return
			}
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	tel := newJobTelemetry(e.ctx, e.log, &m.Metrics)
	return m.run(e.ctx, e.spec, tel)
}

// finish moves an execution to its terminal state, emits the terminal
// event, updates counters, persists successful reports to the durable
// store, and — for anything but success — evicts the digest from the
// cache so a later identical submit retries instead of inheriting the
// failure.
func (m *Manager) finish(e *execution, report []byte, err error) {
	if err == nil && m.opts.Store != nil {
		// Best-effort durability: a failed Put (disk full, permissions)
		// only costs a re-run after the next restart; the in-memory
		// cache still serves this process. It lands before the state
		// turns done, so whoever sees done finds the record on disk.
		m.opts.Store.Put(e.digest, report)
	}

	e.mu.Lock()
	switch {
	case errors.Is(err, context.Canceled):
		e.state = StateCanceled
		e.err = err
	case err != nil:
		e.state = StateFailed
		e.err = err
	default:
		e.state = StateDone
		e.report = report
	}
	e.finishedAt = time.Now()
	state := e.state
	e.mu.Unlock()

	switch state {
	case StateDone:
		m.Metrics.Completed.Add(1)
		e.log.Emit(Event{Type: "done"})
	case StateCanceled:
		m.Metrics.Canceled.Add(1)
		e.log.Emit(Event{Type: "canceled"})
	default:
		m.Metrics.Failed.Add(1)
		e.log.Emit(Event{Type: "failed", Error: err.Error()})
	}
	if state != StateDone {
		m.mu.Lock()
		if m.cache[e.digest] == e {
			delete(m.cache, e.digest)
		}
		m.mu.Unlock()
	}
	e.cancel() // release the context regardless of outcome
}
