package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/resultstore"
)

// openStore opens a result store rooted at dir for manager tests.
func openStore(t *testing.T, dir string, maxBytes int64, maxEntries int) *resultstore.Store {
	t.Helper()
	s, err := resultstore.Open(resultstore.Options{Dir: dir, MaxBytes: maxBytes, MaxEntries: maxEntries})
	if err != nil {
		t.Fatalf("resultstore.Open: %v", err)
	}
	return s
}

// TestAttachRechecksStaleTerminal is the regression test for the
// attach/evict race: finish() marks an execution failed (or canceled)
// under the execution lock and only afterwards takes the manager lock
// to evict the digest, so a submit landing between the two used to
// attach to the doomed execution and report its stale error — even
// though the documented contract is that failed digests retry. Submit
// now re-checks the state under the execution lock and replaces the
// stale entry with a fresh execution.
func TestAttachRechecksStaleTerminal(t *testing.T) {
	for _, staleState := range []State{StateFailed, StateCanceled} {
		t.Run(string(staleState), func(t *testing.T) {
			stub := &stubRunner{report: []byte("fresh run")}
			m := newStubManager(t, Options{Workers: 1}, stub)

			norm, err := JobSpec{Experiment: "fig4"}.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			digest, err := norm.Digest()
			if err != nil {
				t.Fatal(err)
			}

			// Reconstruct the race window: a terminal non-done execution
			// still sitting in the cache because its finish() hasn't
			// reached the eviction step yet.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			stale := &execution{
				digest: digest,
				spec:   norm,
				log:    NewEventLog[Event](),
				ctx:    ctx,
				cancel: cancel,
				state:  staleState,
				err:    fmt.Errorf("stale %s error", staleState),
			}
			m.mu.Lock()
			m.cache[digest] = stale
			m.mu.Unlock()

			job, err := m.Submit(JobSpec{Experiment: "fig4"})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if job.exec == stale {
				t.Fatal("submit attached to the stale terminal execution")
			}
			waitState(t, job, StateDone)
			if got := job.Err(); got != "" {
				t.Errorf("job observed stale error %q", got)
			}
			if body, ok := job.Report(); !ok || string(body) != "fresh run" {
				t.Errorf("report = %q, %v, want fresh run", body, ok)
			}
			if stub.callCount() != 1 {
				t.Errorf("runner calls = %d, want 1 (fresh execution)", stub.callCount())
			}
			// finish() of the fresh execution must not have evicted the
			// replacement: done entries stay cached.
			if m.CacheEntries() != 1 {
				t.Errorf("CacheEntries = %d, want 1", m.CacheEntries())
			}
		})
	}
}

// TestRetentionGC: terminal jobs older than the horizon are pruned
// from the job table; queued and running jobs survive any age.
func TestRetentionGC(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), report: []byte("r")}
	// A huge horizon keeps the background sweeper effectively inert so
	// the test drives gc() deterministically with its own clock.
	m := newStubManager(t, Options{Workers: 1, JobRetention: time.Hour}, stub)
	defer close(stub.block)

	// done job: completes immediately (runner not yet blocked for it).
	fast := &stubRunner{report: []byte("done")}
	m.run = fast.run
	done, err := m.Submit(JobSpec{Experiment: "fig4", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, done, StateDone)

	// running job: blocks in the runner.
	m.run = stub.run
	running, err := m.Submit(JobSpec{Experiment: "fig4", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitCalls(t, stub, 1)

	// queued job: sits behind the single busy worker.
	queued, err := m.Submit(JobSpec{Experiment: "fig4", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// canceled job: terminal the moment it is canceled.
	canceled, err := m.Submit(JobSpec{Experiment: "fig4", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}

	// A sweep dated far in the future retires everything terminal.
	if got := m.gc(time.Now().Add(24 * time.Hour)); got != 2 {
		t.Errorf("gc retired %d jobs, want 2 (done + canceled)", got)
	}
	for _, gone := range []*Job{done, canceled} {
		if _, err := m.Job(gone.ID); !errors.Is(err, ErrNoSuchJob) {
			t.Errorf("terminal job %s survived GC: %v", gone.ID, err)
		}
	}
	for _, alive := range []*Job{running, queued} {
		if _, err := m.Job(alive.ID); err != nil {
			t.Errorf("live job %s pruned by GC: %v", alive.ID, err)
		}
	}
	if got := m.Metrics.Retired.Load(); got != 2 {
		t.Errorf("Retired = %d, want 2", got)
	}
	if got := len(m.Jobs()); got != 2 {
		t.Errorf("Jobs() lists %d, want 2", got)
	}
	// Without a store, the done execution stays cached for dedup.
	if !m.cacheHas(t, done) {
		t.Error("done execution evicted from cache despite no store")
	}

	// A sweep inside the horizon retires nothing.
	if got := m.gc(time.Now()); got != 0 {
		t.Errorf("fresh gc retired %d jobs", got)
	}
}

// cacheHas reports whether the manager still caches a job's digest.
func (m *Manager) cacheHas(t *testing.T, j *Job) bool {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.cache[j.Digest()]
	return ok
}

// TestRetentionGCBackground: the sweeper retires terminal jobs on its
// own once the horizon passes — no manual gc() calls.
func TestRetentionGCBackground(t *testing.T) {
	stub := &stubRunner{report: []byte("r")}
	m := newStubManager(t, Options{Workers: 1, JobRetention: 30 * time.Millisecond}, stub)

	job, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := m.Job(job.ID); errors.Is(err, ErrNoSuchJob) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("background sweeper never retired job %s", job.ID)
}

// TestStoreWarmStart is the durability acceptance test at the manager
// level: a report computed under one manager is served by a second
// manager (fresh process state, same store directory) byte-identically
// and without executing anything.
func TestStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Experiment: "fig4"}
	report := []byte("== fig4 ==\npersisted report bytes\n")

	stub1 := &stubRunner{report: report}
	m1 := newStubManager(t, Options{Workers: 1, Store: openStore(t, dir, 0, 0)}, stub1)
	first, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// "Restart": a new manager over the same directory, with a runner
	// that must never fire.
	stub2 := &stubRunner{report: []byte("WRONG: re-executed")}
	m2 := newStubManager(t, Options{Workers: 1, Store: openStore(t, dir, 0, 0)}, stub2)
	warm, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.State(); got != StateDone {
		t.Fatalf("warm submit state = %s, want done immediately", got)
	}
	body, ok := warm.Report()
	if !ok || !bytes.Equal(body, report) {
		t.Fatalf("warm report = %q, %v, want original bytes", body, ok)
	}
	if stub2.callCount() != 0 {
		t.Errorf("warm start re-executed the job (%d calls)", stub2.callCount())
	}
	if got := m2.Metrics.Executions.Load(); got != 0 {
		t.Errorf("Executions = %d, want 0", got)
	}
	if got := m2.Metrics.CacheHits.Load(); got != 1 {
		t.Errorf("CacheHits = %d, want 1", got)
	}
	if st := m2.StoreStats(); st.Hits != 1 {
		t.Errorf("store stats = %+v, want 1 hit", st)
	}
	// The synthesized execution's event log terminates, so SSE
	// replays close.
	evs, _, _ := warm.Events().After(0)
	if len(evs) == 0 || !evs[len(evs)-1].Terminal() {
		t.Errorf("warm job events = %+v, want terminal tail", evs)
	}
	// A second warm submit hits the in-memory cache, not the store.
	again, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.State() != StateDone {
		t.Errorf("second warm submit state = %s", again.State())
	}
	if st := m2.StoreStats(); st.Hits != 1 {
		t.Errorf("second submit went to disk: %+v", st)
	}
}

// TestStoreCorruptionReRuns: a record damaged on disk is detected by
// its CRC footer, counted, evicted, and the job re-executes — the
// corrupt bytes are never served.
func TestStoreCorruptionReRuns(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Experiment: "fig4"}

	stub1 := &stubRunner{report: []byte("original")}
	m1 := newStubManager(t, Options{Workers: 1, Store: openStore(t, dir, 0, 0)}, stub1)
	job, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)
	digest := job.Digest()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m1.Shutdown(ctx)

	// Flip one byte of the persisted record's body.
	path := filepath.Join(dir, digest+".rec")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read record: %v", err)
	}
	raw[len(raw)-6] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Open evicts the corrupt record during its scan, so the submit is
	// a clean miss that re-executes.
	store2 := openStore(t, dir, 0, 0)
	if got := store2.Stats().Corruptions; got != 1 {
		t.Fatalf("Corruptions after scan = %d, want 1", got)
	}
	stub2 := &stubRunner{report: []byte("recomputed")}
	m2 := newStubManager(t, Options{Workers: 1, Store: store2}, stub2)
	redo, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, redo, StateDone)
	if body, _ := redo.Report(); string(body) != "recomputed" {
		t.Errorf("report = %q, want the re-run's bytes", body)
	}
	if stub2.callCount() != 1 {
		t.Errorf("runner calls = %d, want 1 re-execution", stub2.callCount())
	}
	// The re-run repaired the record on disk.
	if !store2.Contains(digest) {
		t.Error("re-run did not persist a fresh record")
	}
}

// TestStoreCorruptionAtGet covers the other corruption path: damage
// that lands after the warm-start scan (while the daemon runs) is
// caught by Get's CRC check at serve time.
func TestStoreCorruptionAtGet(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir, 0, 0)
	spec := JobSpec{Experiment: "fig4"}

	stub := &stubRunner{report: []byte("original")}
	m := newStubManager(t, Options{Workers: 1, Store: store}, stub)
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)

	// Damage the record, then force the manager back to disk by
	// dropping the in-memory execution (what retention GC does on a
	// long-lived daemon).
	path := filepath.Join(dir, job.Digest()+".rec")
	raw, _ := os.ReadFile(path)
	raw[len(raw)-6] ^= 0x01
	os.WriteFile(path, raw, 0o644)
	m.mu.Lock()
	delete(m.cache, job.Digest())
	m.mu.Unlock()

	redo, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, redo, StateDone)
	if body, _ := redo.Report(); string(body) != "original" {
		t.Errorf("report = %q, want re-run bytes", body)
	}
	if stub.callCount() != 2 {
		t.Errorf("runner calls = %d, want 2 (corrupt record re-ran)", stub.callCount())
	}
	st := store.Stats()
	if st.Corruptions != 1 {
		t.Errorf("Corruptions = %d, want 1", st.Corruptions)
	}
}

// TestStoreEvictionUnderManager: a byte budget smaller than the
// working set evicts LRU records while the manager keeps serving.
func TestStoreEvictionUnderManager(t *testing.T) {
	report := bytes.Repeat([]byte("x"), 1024)
	// Budget fits two records and change, so the third Put evicts.
	store := openStore(t, t.TempDir(), 2500, 0)
	stub := &stubRunner{report: report}
	m := newStubManager(t, Options{Workers: 1, Store: store}, stub)

	for seed := uint64(1); seed <= 3; seed++ {
		job, err := m.Submit(JobSpec{Experiment: "fig4", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, job, StateDone)
	}
	st := store.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions with budget 2500 and 3 × %d-byte reports: %+v", len(report), st)
	}
	if st.Bytes > 2500 {
		t.Errorf("store bytes %d over budget", st.Bytes)
	}
	if st.Entries >= 3 {
		t.Errorf("entries = %d, want < 3", st.Entries)
	}
}
