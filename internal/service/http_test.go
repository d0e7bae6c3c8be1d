package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fastPipelineSpec is a real run cheap enough for tests: the in-situ
// pipeline at minimal host fidelity (~0.2 s wall).
func fastPipelineSpec() JobSpec {
	return JobSpec{Pipeline: "insitu", Case: 3, RealSubsteps: 1}
}

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(opts)
	srv := httptest.NewServer(Handler(m))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return srv, m
}

func postJob(t *testing.T, srv *httptest.Server, spec JobSpec) (jobView, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var view jobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decode job view: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return view, resp
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp
}

func waitJobState(t *testing.T, srv *httptest.Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var view jobView
	for time.Now().Before(deadline) {
		getJSON(t, srv.URL+"/v1/jobs/"+id, &view)
		if view.State == want {
			return
		}
		if view.State.Terminal() {
			t.Fatalf("job %s terminal in %s (error %q), want %s", id, view.State, view.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", id, view.State, want)
}

// TestAPIConcurrentIdenticalSubmits is the headline acceptance
// criterion: 8 concurrent identical submits cost exactly one pipeline
// execution and serve 8 byte-identical report bodies.
func TestAPIConcurrentIdenticalSubmits(t *testing.T) {
	srv, m := newTestServer(t, Options{Workers: 4})

	ids := make([]string, 8)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			view, resp := postJob(t, srv, fastPipelineSpec())
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			ids[i] = view.ID
		}(i)
	}
	wg.Wait()

	var bodies [][]byte
	for _, id := range ids {
		waitJobState(t, srv, id, StateDone)
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/report")
		if err != nil {
			t.Fatalf("GET report: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report %s: status %d: %s", id, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("pipeline report content-type %q", ct)
		}
		bodies = append(bodies, body)
	}
	for i, b := range bodies[1:] {
		if !bytes.Equal(b, bodies[0]) {
			t.Errorf("report %d differs from report 0", i+1)
		}
	}
	if got := m.Metrics.Executions.Load(); got != 1 {
		t.Errorf("Executions = %d, want exactly 1 for 8 identical submits", got)
	}
	if got := m.Metrics.Submitted.Load(); got != 8 {
		t.Errorf("Submitted = %d, want 8", got)
	}

	// The report round-trips as a RunResult.
	var decoded map[string]any
	if err := json.Unmarshal(bodies[0], &decoded); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if decoded["pipeline"] != "in-situ" {
		t.Errorf("report pipeline = %v, want in-situ", decoded["pipeline"])
	}
}

// TestAPIEventsSSE pins the live-progress contract: the SSE stream
// replays and follows the job's deterministic event sequence — one
// "stage" event per engine stage, in execution order, between the
// lifecycle events.
func TestAPIEventsSSE(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})

	view, resp := postJob(t, srv, fastPipelineSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	stream, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}

	var events []Event
	scanner := bufio.NewScanner(stream.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		events = append(events, ev)
		if ev.Terminal() {
			break
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}

	var got []string
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		switch ev.Type {
		case "run":
			got = append(got, "run:"+ev.Run)
		case "stage":
			got = append(got, "stage:"+ev.Stage)
		default:
			got = append(got, ev.Type)
		}
	}
	want := []string{"queued", "running", "run:in-situ", "stage:simulation", "stage:visualization", "done"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("event sequence:\n got %v\nwant %v", got, want)
	}

	// Replay: a subscriber arriving after completion sees the same
	// sequence from the log.
	replay, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatalf("GET events replay: %v", err)
	}
	body, _ := io.ReadAll(replay.Body) // closed log: stream ends at terminal event
	replay.Body.Close()
	if n := strings.Count(string(body), "data: "); n != len(events) {
		t.Errorf("replay streamed %d events, want %d", n, len(events))
	}
}

// TestAPIErrors covers the error-path status codes.
func TestAPIErrors(t *testing.T) {
	srv, m := newTestServer(t, Options{Workers: 1})

	// Bad spec: 400.
	_, resp := postJob(t, srv, JobSpec{Experiment: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec: status %d, want 400", resp.StatusCode)
	}
	// Malformed body: 400.
	r2, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", r2.StatusCode)
	}
	// Unknown fields: 400 (catches typos like "experimnt", and the
	// removed kernel_workers knob).
	for _, body := range []string{`{"experimnt":"fig4"}`, `{"experiment":"fig4","kernel_workers":2}`} {
		r3, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r3.Body)
		r3.Body.Close()
		if r3.StatusCode != http.StatusBadRequest {
			t.Errorf("unknown field %s: status %d, want 400", body, r3.StatusCode)
		}
	}

	// Unknown job: 404 on status, report, events, cancel.
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/report", "/v1/jobs/job-999999/events"} {
		if resp := getJSON(t, srv.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// Report before done: 409. Use a stub runner that blocks.
	stub := &stubRunner{block: make(chan struct{}), report: []byte("r")}
	m.run = stub.run
	view, resp := postJob(t, srv, JobSpec{Experiment: "fig4"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/v1/jobs/"+view.ID+"/report", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("report before done: status %d, want 409", resp.StatusCode)
	}

	// Cancel over HTTP: DELETE, then the job reports canceled.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+view.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("DELETE: status %d, want 200", dresp.StatusCode)
	}
	waitJobState(t, srv, view.ID, StateCanceled)
	close(stub.block)
}

// TestAPIRegistriesAndMetrics covers the listing and metrics endpoints.
func TestAPIRegistriesAndMetrics(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 2})

	var exps []struct{ ID, Description string }
	getJSON(t, srv.URL+"/v1/experiments", &exps)
	if len(exps) == 0 || exps[1].ID != "fig4" {
		t.Errorf("experiments listing: %+v", exps)
	}
	var pipes []struct {
		Flag      string
		Clustered bool
	}
	getJSON(t, srv.URL+"/v1/pipelines", &pipes)
	if len(pipes) != 4 || pipes[1].Flag != "insitu" || !pipes[3].Clustered {
		t.Errorf("pipelines listing: %+v", pipes)
	}

	view, _ := postJob(t, srv, fastPipelineSpec())
	waitJobState(t, srv, view.ID, StateDone)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"greenvizd_jobs_submitted_total 1",
		"greenvizd_executions_total 1",
		"greenvizd_jobs_completed_total 1",
		"greenvizd_cache_entries 1",
		fmt.Sprintf("greenvizd_stage_virtual_seconds_total{stage=%q}", "simulation"),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	// Job listing shows the job in submission order, wrapped in the
	// pagination envelope.
	var page jobsPage
	getJSON(t, srv.URL+"/v1/jobs", &page)
	if len(page.Jobs) != 1 || page.Jobs[0].ID != view.ID || page.Jobs[0].State != StateDone {
		t.Errorf("jobs listing: %+v", page)
	}
	if page.Next != "" {
		t.Errorf("single-page listing has next cursor %q", page.Next)
	}

	// pprof is mounted.
	if resp := getJSON(t, srv.URL+"/debug/pprof/cmdline", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof: status %d", resp.StatusCode)
	}
}

// TestAPIExperimentReportMatchesCLI: an experiment job's report bytes
// are the exact CLI stdout block — the golden-gated Report.Block().
func TestAPIExperimentReportMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig4 at reduced fidelity")
	}
	srv, _ := newTestServer(t, Options{Workers: 1})

	// Reduced fidelity keeps the test fast; determinism still holds at
	// any fidelity, so equal specs yield equal bytes.
	spec := JobSpec{Experiment: "fig4", RealSubsteps: 1}
	view, resp := postJob(t, srv, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitJobState(t, srv, view.ID, StateDone)

	rresp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if ct := rresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("experiment report content-type %q", ct)
	}
	if !strings.HasPrefix(string(body), "== fig4 ==\n") {
		t.Errorf("report does not open with the CLI block header:\n%.80s", body)
	}
	if rresp.Header.Get("X-Job-Digest") != view.Digest {
		t.Errorf("report digest header mismatch")
	}
}

// TestPprofEndpoints smoke-tests the mounted /debug/pprof handlers the
// profiling harness (scripts/profile.sh, make profile) relies on for
// live daemons: the index page lists the standard profiles, and the
// heap and allocs profiles serve readable text in debug mode. The CPU
// profile endpoint is skipped — it blocks for its sampling window.
func TestPprofEndpoints(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof index: status %d", code)
	} else {
		for _, profile := range []string{"heap", "goroutine", "allocs"} {
			if !strings.Contains(body, profile) {
				t.Errorf("pprof index does not list %q", profile)
			}
		}
	}
	for _, path := range []string{
		"/debug/pprof/heap?debug=1",
		"/debug/pprof/allocs?debug=1",
		"/debug/pprof/goroutine?debug=1",
	} {
		code, body := get(path)
		if code != http.StatusOK {
			t.Errorf("%s: status %d", path, code)
			continue
		}
		if !strings.Contains(body, "profile") && !strings.Contains(body, "goroutine") {
			t.Errorf("%s: unrecognized body prefix %.60q", path, body)
		}
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof cmdline: status %d", code)
	}
}
