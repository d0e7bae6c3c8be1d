package service

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestJobTableStress drives one manager with the real runner from
// several goroutines at once for a fixed number of rounds: submits of
// distinct and duplicate fast specs, cancels, retention sweeps under a
// short JobRetention, and store evictions (four entries for six
// specs). Every job must end terminal, Shutdown must return, and every
// report a job serves must be the bytes a fresh run of its spec
// produces. Run it under -race: the interleavings, not the counts, are
// the point.
func TestJobTableStress(t *testing.T) {
	specs := []JobSpec{
		{Pipeline: "insitu", Case: 3, RealSubsteps: 1, Seed: 1},
		{Pipeline: "insitu", Case: 3, RealSubsteps: 1, Seed: 2},
		{Pipeline: "intransit", Case: 3, RealSubsteps: 1, Seed: 1},
		{Pipeline: "post", Case: 3, RealSubsteps: 1, Seed: 1},
		{Experiment: "table1", Seed: 1},
		{Experiment: "table1", Seed: 2},
	}
	const (
		submitters = 3
		rounds     = 18
	)
	store := openStore(t, t.TempDir(), 0, 4)
	m := NewManager(Options{
		Workers:      2,
		QueueDepth:   2 * submitters * rounds, // every submit fits: none is refused
		Store:        store,
		JobRetention: 5 * time.Millisecond,
	})

	jobs := make([][]*Job, submitters)
	stop := make(chan struct{})
	sweeps := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				sweeps <- n
				return
			default:
				m.gc(time.Now())
				n++
				time.Sleep(time.Millisecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// One spec every submitter shares this round, one of its own.
				var own *Job
				for _, spec := range []JobSpec{specs[i%len(specs)], specs[(i+g+1)%len(specs)]} {
					job, err := m.Submit(spec)
					if err != nil {
						t.Errorf("Submit(%+v): %v", spec, err)
						return
					}
					jobs[g] = append(jobs[g], job)
					own = job
				}
				if i%3 == g {
					if _, err := m.Cancel(own.ID); err != nil && !errors.Is(err, ErrNoSuchJob) {
						t.Errorf("Cancel(%s): %v", own.ID, err)
					}
				}
				// Pace the rounds by the runs, so later submits meet done,
				// retired and evicted results rather than only queued ones.
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				own.Wait(ctx)
				cancel()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	t.Logf("%d retention sweeps", <-sweeps)

	// Shutdown drains whatever the rounds left queued or running.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	fresh := map[string][]byte{}
	canceled := 0
	for _, own := range jobs {
		for _, job := range own {
			switch st := job.State(); {
			case !st.Terminal():
				t.Fatalf("job %s (%+v) still %s after Shutdown", job.ID, job.Spec, st)
			case st == StateFailed:
				t.Errorf("job %s (%+v) failed: %s", job.ID, job.Spec, job.Err())
			case st == StateCanceled:
				canceled++
			}
			report, ok := job.Report()
			if !ok {
				continue
			}
			want, seen := fresh[job.Digest()]
			if !seen {
				var err error
				want, err = runSpec(context.Background(), job.Spec,
					newJobTelemetry(context.Background(), NewEventLog[Event](), &Metrics{}))
				if err != nil {
					t.Fatalf("fresh run of %+v: %v", job.Spec, err)
				}
				fresh[job.Digest()] = want
			}
			if !bytes.Equal(report, want) {
				t.Errorf("job %s (%+v) served %d bytes that differ from a fresh run's %d", job.ID, job.Spec, len(report), len(want))
			}
		}
	}

	// The rounds must have reached every path they exist to interleave.
	if canceled == 0 || m.Metrics.Retired.Load() == 0 {
		t.Errorf("%d jobs canceled and %d retired, want some of each", canceled, m.Metrics.Retired.Load())
	}
	if st := store.Stats(); st.Evictions == 0 || st.Entries > 4 {
		t.Errorf("store stats %+v, want evictions and at most 4 entries", st)
	}
	if len(fresh) != len(specs) {
		t.Errorf("%d of %d specs served a report", len(fresh), len(specs))
	}
	t.Logf("%d executions, %d cache hits, %d deduped, %d jobs canceled, %d retired, store %+v",
		m.Metrics.Executions.Load(), m.Metrics.CacheHits.Load(), m.Metrics.Deduped.Load(),
		canceled, m.Metrics.Retired.Load(), store.Stats())
}
