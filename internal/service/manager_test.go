package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubRunner replaces the production runner so manager tests control
// execution timing and outcomes without running the simulation core.
type stubRunner struct {
	mu    sync.Mutex
	calls int

	block  chan struct{} // when non-nil, run blocks until closed (or ctx)
	report []byte
	err    error
}

func (s *stubRunner) run(ctx context.Context, spec JobSpec, tel *jobTelemetry) ([]byte, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	if s.block != nil {
		select {
		case <-s.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.report, nil
}

func (s *stubRunner) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// newStubManager builds a manager whose runner is the stub. Replacing
// m.run before any Submit is safe: workers observe it through the
// queue-channel happens-before edge.
func newStubManager(t testing.TB, opts Options, stub *stubRunner) *Manager {
	t.Helper()
	m := NewManager(opts)
	m.run = stub.run
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

// waitState polls a job to the wanted state.
func waitState(t *testing.T, job *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if job.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", job.ID, job.State(), want)
}

// waitCalls polls the stub until it has seen n calls.
func waitCalls(t *testing.T, stub *stubRunner, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if stub.callCount() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("stub saw %d calls, want %d", stub.callCount(), n)
}

// TestSubmitDedup is the singleflight core: 8 concurrent identical
// submits share one execution and one report.
func TestSubmitDedup(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), report: []byte("the report\n")}
	m := newStubManager(t, Options{Workers: 4}, stub)

	spec := JobSpec{Experiment: "fig4"}
	jobs := make([]*Job, 8)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := m.Submit(spec)
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			jobs[i] = job
		}(i)
	}
	wg.Wait()

	for _, j := range jobs[1:] {
		if j.Digest() != jobs[0].Digest() {
			t.Fatalf("digests differ: %s vs %s", j.Digest(), jobs[0].Digest())
		}
	}
	if got := m.Metrics.Submitted.Load(); got != 8 {
		t.Errorf("Submitted = %d, want 8", got)
	}
	if got := m.Metrics.Deduped.Load(); got != 7 {
		t.Errorf("Deduped = %d, want 7", got)
	}
	if m.CacheEntries() != 1 {
		t.Errorf("CacheEntries = %d, want 1", m.CacheEntries())
	}

	close(stub.block)
	for _, j := range jobs {
		waitState(t, j, StateDone)
	}
	if stub.callCount() != 1 {
		t.Errorf("runner ran %d times, want 1", stub.callCount())
	}
	if got := m.Metrics.Executions.Load(); got != 1 {
		t.Errorf("Executions = %d, want 1", got)
	}
	for _, j := range jobs {
		body, ok := j.Report()
		if !ok || !bytes.Equal(body, stub.report) {
			t.Errorf("job %s report = %q, %v", j.ID, body, ok)
		}
	}

	// A later identical submit is a cache hit: served without running.
	late, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("cache-hit Submit: %v", err)
	}
	if late.State() != StateDone {
		t.Errorf("cache hit state = %s, want done", late.State())
	}
	if got := m.Metrics.CacheHits.Load(); got != 1 {
		t.Errorf("CacheHits = %d, want 1", got)
	}
	if stub.callCount() != 1 {
		t.Errorf("cache hit re-ran the job (%d calls)", stub.callCount())
	}
}

// TestQueueFullBackpressure: with one busy worker and a depth-1 queue,
// a third distinct job bounces with ErrQueueFull.
func TestQueueFullBackpressure(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), report: []byte("r")}
	m := newStubManager(t, Options{Workers: 1, QueueDepth: 1}, stub)

	a, err := m.Submit(JobSpec{Experiment: "fig4", Seed: 1})
	if err != nil {
		t.Fatalf("Submit a: %v", err)
	}
	waitCalls(t, stub, 1) // a is out of the queue and running

	if _, err := m.Submit(JobSpec{Experiment: "fig4", Seed: 2}); err != nil {
		t.Fatalf("Submit b: %v", err)
	}
	_, err = m.Submit(JobSpec{Experiment: "fig4", Seed: 3})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit c = %v, want ErrQueueFull", err)
	}
	if got := m.Metrics.Rejected.Load(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}

	// Backpressure is transient: once the queue drains, submits flow again.
	close(stub.block)
	waitState(t, a, StateDone)
	waitCalls(t, stub, 2)
	if _, err := m.Submit(JobSpec{Experiment: "fig4", Seed: 3}); err != nil {
		t.Errorf("Submit after drain: %v", err)
	}
}

// TestCancelMidRun: cancelling the only job on an execution stops the
// run and evicts the digest so a resubmit retries.
func TestCancelMidRun(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), report: []byte("r")}
	m := newStubManager(t, Options{Workers: 1}, stub)

	job, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitCalls(t, stub, 1)

	state, err := m.Cancel(job.ID)
	if err != nil || state != StateCanceled {
		t.Fatalf("Cancel = %s, %v", state, err)
	}
	// job.State() flips to canceled instantly (the per-job flag); the
	// execution itself stops at its next cancellation point. Wait for
	// the underlying run to actually wind down before checking effects.
	deadline := time.Now().Add(10 * time.Second)
	for job.exec.getState() != StateCanceled && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := job.exec.getState(); st != StateCanceled {
		t.Fatalf("execution stuck in %s, want canceled", st)
	}
	if got := m.Metrics.Canceled.Load(); got != 1 {
		t.Errorf("Canceled = %d, want 1", got)
	}
	if m.CacheEntries() != 0 {
		t.Errorf("canceled execution still cached (%d entries)", m.CacheEntries())
	}
	evs, _, _ := job.Events().After(0)
	if len(evs) == 0 || evs[len(evs)-1].Type != "canceled" {
		t.Errorf("events = %+v, want trailing canceled", evs)
	}
	if _, ok := job.Report(); ok {
		t.Error("canceled job served a report")
	}

	// Cancelling a terminal job is a no-op reporting its state.
	if state, err := m.Cancel(job.ID); err != nil || state != StateCanceled {
		t.Errorf("re-Cancel = %s, %v", state, err)
	}
	if _, err := m.Cancel("job-999999"); !errors.Is(err, ErrNoSuchJob) {
		t.Errorf("Cancel unknown = %v, want ErrNoSuchJob", err)
	}
}

// TestCancelDetaches: with two jobs on one execution, cancelling one
// detaches it while the run continues for the other.
func TestCancelDetaches(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), report: []byte("shared")}
	m := newStubManager(t, Options{Workers: 1}, stub)

	a, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatalf("Submit a: %v", err)
	}
	b, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatalf("Submit b: %v", err)
	}
	waitCalls(t, stub, 1)

	if _, err := m.Cancel(a.ID); err != nil {
		t.Fatalf("Cancel a: %v", err)
	}
	if a.State() != StateCanceled {
		t.Errorf("a state = %s, want canceled", a.State())
	}
	if st := b.State(); st != StateRunning {
		t.Errorf("b state = %s, want running (detach must not stop the run)", st)
	}

	close(stub.block)
	waitState(t, b, StateDone)
	if body, ok := b.Report(); !ok || string(body) != "shared" {
		t.Errorf("b report = %q, %v", body, ok)
	}
	if a.State() != StateCanceled {
		t.Errorf("a resurrected to %s", a.State())
	}
}

// TestFailureEvicted: a failed execution leaves no cache entry, so the
// next identical submit gets a fresh attempt.
func TestFailureEvicted(t *testing.T) {
	stub := &stubRunner{err: fmt.Errorf("disk on fire")}
	m := newStubManager(t, Options{Workers: 1}, stub)

	job, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, job, StateFailed)
	if job.Err() == "" {
		t.Error("failed job reports no error")
	}
	if m.CacheEntries() != 0 {
		t.Errorf("failed execution still cached (%d entries)", m.CacheEntries())
	}
	evs, _, _ := job.Events().After(0)
	if len(evs) == 0 || evs[len(evs)-1].Type != "failed" || evs[len(evs)-1].Error == "" {
		t.Errorf("events = %+v, want trailing failed with error", evs)
	}

	stub.err = nil
	stub.report = []byte("recovered")
	retry, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatalf("retry Submit: %v", err)
	}
	waitState(t, retry, StateDone)
	if stub.callCount() != 2 {
		t.Errorf("retry did not re-run (calls = %d)", stub.callCount())
	}
}

// TestResubmitAfterCancelRunsAfresh: a cancel takes effect at the
// run's next cancellation point, so a resubmit can land while the
// canceled execution is still running. It must not attach to that
// doomed execution: it runs afresh and ends done.
func TestResubmitAfterCancelRunsAfresh(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int32
	m := newStubManager(t, Options{Workers: 1}, &stubRunner{})
	m.run = func(ctx context.Context, _ JobSpec, _ *jobTelemetry) ([]byte, error) {
		calls.Add(1)
		<-release // deaf to ctx, like a run between two telemetry events
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []byte("fresh"), nil
	}
	spec := JobSpec{Experiment: "fig4"}
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, first, StateRunning)
	if _, err := m.Cancel(first.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	second, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st := second.Wait(ctx); st != StateDone {
		t.Fatalf("resubmitted job ended %s, want done", st)
	}
	if second.Deduped() {
		t.Error("resubmit was deduped onto the canceled execution")
	}
	if body, _ := second.Report(); string(body) != "fresh" {
		t.Errorf("resubmit report = %q, want fresh", body)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("runner called %d times, want 2", n)
	}
}

// TestRunnerPanicIsFailure: a panicking run fails its job without
// taking the worker down.
func TestRunnerPanicIsFailure(t *testing.T) {
	m := newStubManager(t, Options{Workers: 1}, &stubRunner{})
	m.run = func(context.Context, JobSpec, *jobTelemetry) ([]byte, error) {
		panic("kaboom")
	}
	job, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, job, StateFailed)

	// The worker survived: it can still run the next job.
	m.run = (&stubRunner{report: []byte("ok")}).run
	next, err := m.Submit(JobSpec{Experiment: "fig4", Seed: 2})
	if err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	waitState(t, next, StateDone)
}

// TestShutdownDrains: in-flight work finishes, new submits bounce with
// ErrDraining, Shutdown returns once idle.
func TestShutdownDrains(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), report: []byte("drained")}
	m := NewManager(Options{Workers: 2})
	m.run = stub.run

	job, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitCalls(t, stub, 1)

	done := make(chan error, 1)
	go func() { done <- m.Shutdown(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for !m.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	if _, err := m.Submit(JobSpec{Experiment: "fig4", Seed: 2}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining = %v, want ErrDraining", err)
	}

	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v before the in-flight job finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(stub.block)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if job.State() != StateDone {
		t.Errorf("drained job state = %s, want done", job.State())
	}
	if body, ok := job.Report(); !ok || string(body) != "drained" {
		t.Errorf("drained job report = %q, %v", body, ok)
	}
	// Shutdown is idempotent.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestShutdownDeadlineCancels: when the drain context expires,
// stragglers are canceled and Shutdown reports the context error.
func TestShutdownDeadlineCancels(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), report: []byte("never")}
	m := NewManager(Options{Workers: 1})
	m.run = stub.run
	defer close(stub.block)

	job, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitCalls(t, stub, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if job.State() != StateCanceled {
		t.Errorf("straggler state = %s, want canceled", job.State())
	}
}

// TestSubmitBadSpec maps validation failures to BadSpecError.
func TestSubmitBadSpec(t *testing.T) {
	m := newStubManager(t, Options{Workers: 1}, &stubRunner{})
	var bad *BadSpecError
	if _, err := m.Submit(JobSpec{Experiment: "nope"}); !errors.As(err, &bad) {
		t.Fatalf("Submit = %v, want BadSpecError", err)
	}
	if got := m.Metrics.Rejected.Load(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
}
