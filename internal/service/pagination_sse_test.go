package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// submitN submits n distinct quick jobs and returns their IDs in
// submission order.
func submitN(t testing.TB, m *Manager, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		job, err := m.Submit(JobSpec{Experiment: "fig4", Seed: uint64(i + 1)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, job.ID)
	}
	return ids
}

func TestJobsPage(t *testing.T) {
	stub := &stubRunner{report: []byte("r")}
	m := newStubManager(t, Options{Workers: 2}, stub)
	ids := submitN(t, m, 5)

	// Page through with limit 2: three pages, submission order, empty
	// next on the last.
	var got []string
	after := ""
	pages := 0
	for {
		jobs, next := m.JobsPage(after, 2)
		pages++
		for _, j := range jobs {
			got = append(got, j.ID)
		}
		if next == "" {
			break
		}
		after = next
		if pages > 10 {
			t.Fatal("cursor did not terminate")
		}
	}
	if pages != 3 {
		t.Fatalf("paged %d times, want 3", pages)
	}
	if fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Fatalf("paged IDs %v != submitted %v", got, ids)
	}

	// limit <= 0 returns everything with no cursor.
	all, next := m.JobsPage("", 0)
	if len(all) != 5 || next != "" {
		t.Fatalf("JobsPage(\"\",0) = %d jobs, next %q", len(all), next)
	}
	// A cursor past the end yields an empty page.
	empty, next := m.JobsPage(ids[4], 2)
	if len(empty) != 0 || next != "" {
		t.Fatalf("past-end page = %d jobs, next %q", len(empty), next)
	}
	// An unknown cursor between IDs resumes at the next newer job.
	tail, _ := m.JobsPage(ids[1]+"zzz", 10)
	if len(tail) != 3 || tail[0].ID != ids[2] {
		t.Fatalf("mid-cursor page starts at %v, want %s", tail, ids[2])
	}
}

// TestJobsPageStraddlesMillion pages across job-999999 →
// job-1000000, where string order and submission order part: every
// job must come back, in submission order, and a cursor between or
// after the seven-digit IDs must resume at the next newer job.
func TestJobsPageStraddlesMillion(t *testing.T) {
	stub := &stubRunner{report: []byte("r")}
	m := newStubManager(t, Options{Workers: 2}, stub)
	m.mu.Lock()
	m.nextID = 999997
	m.mu.Unlock()
	ids := submitN(t, m, 5)
	if want := "[job-999998 job-999999 job-1000000 job-1000001 job-1000002]"; fmt.Sprint(ids) != want {
		t.Fatalf("IDs %v, want %s", ids, want)
	}
	var got []string
	after := ""
	for pages := 0; ; pages++ {
		if pages > 10 {
			t.Fatal("cursor did not terminate")
		}
		jobs, next := m.JobsPage(after, 2)
		for _, j := range jobs {
			got = append(got, j.ID)
		}
		if next == "" {
			break
		}
		after = next
	}
	if fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Fatalf("paged IDs %v != submitted %v", got, ids)
	}
	for _, c := range []struct{ after, first string }{
		{"job-999999", "job-1000000"},
		{"job-999999zzz", "job-1000000"},
		{"job-1000000", "job-1000001"},
		{"job-0999999", "job-999999"},
	} {
		page, _ := m.JobsPage(c.after, 1)
		if len(page) != 1 || page[0].ID != c.first {
			t.Errorf("JobsPage(%q) starts at %v, want %s", c.after, page, c.first)
		}
	}
	if page, next := m.JobsPage("job-1000002", 2); len(page) != 0 || next != "" {
		t.Errorf("page after the newest job = %d jobs, next %q", len(page), next)
	}
}

func TestJobsPageHTTP(t *testing.T) {
	stub := &stubRunner{report: []byte("r")}
	m := newStubManager(t, Options{Workers: 2}, stub)
	ids := submitN(t, m, 3)
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	decodePage := func(url string) (pageIDs []string, next string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status = %d", url, resp.StatusCode)
		}
		var page struct {
			Jobs []struct {
				ID string `json:"id"`
			} `json:"jobs"`
			Next string `json:"next"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatalf("decode: %v", err)
		}
		for _, j := range page.Jobs {
			pageIDs = append(pageIDs, j.ID)
		}
		return pageIDs, page.Next
	}

	first, next := decodePage(srv.URL + "/v1/jobs?limit=2")
	if len(first) != 2 || next != ids[1] {
		t.Fatalf("first page = %v next %q, want %v next %q", first, next, ids[:2], ids[1])
	}
	second, next := decodePage(srv.URL + "/v1/jobs?limit=2&after=" + next)
	if len(second) != 1 || second[0] != ids[2] || next != "" {
		t.Fatalf("second page = %v next %q", second, next)
	}

	// Bad limits are 400s, not silent defaults.
	for _, bad := range []string{"0", "-3", "many"} {
		resp, err := http.Get(srv.URL + "/v1/jobs?limit=" + bad)
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("limit=%s status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestSubmitMarksDeduped(t *testing.T) {
	stub := &stubRunner{report: []byte("r"), block: make(chan struct{})}
	m := newStubManager(t, Options{Workers: 1}, stub)

	j1, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j2, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j1.Deduped() {
		t.Error("first submit marked deduped")
	}
	if !j2.Deduped() {
		t.Error("singleflight attach not marked deduped")
	}
	close(stub.block)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st := j1.Wait(ctx); st != StateDone {
		t.Fatalf("j1 state = %s", st)
	}
	// Cache hit after completion is deduped too.
	j3, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !j3.Deduped() {
		t.Error("cache hit not marked deduped")
	}
	if st := j3.Wait(ctx); st != StateDone {
		t.Fatalf("j3 state = %s", st)
	}
}

// TestJobWaitContext: Wait returns promptly when its context expires
// mid-run, reporting the non-terminal state.
func TestJobWaitContext(t *testing.T) {
	stub := &stubRunner{report: []byte("r"), block: make(chan struct{})}
	m := newStubManager(t, Options{Workers: 1}, stub)
	job, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if st := job.Wait(ctx); st.Terminal() {
		t.Fatalf("Wait returned terminal %s for a blocked job", st)
	}
	close(stub.block)
	waitState(t, job, StateDone)
}

// TestSSEHeartbeat: an idle events stream emits `: heartbeat` comments
// at the configured interval — the slow-subscriber/idle-proxy
// liveness contract — and real events still terminate it.
func TestSSEHeartbeat(t *testing.T) {
	stub := &stubRunner{report: []byte("r"), block: make(chan struct{})}
	m := newStubManager(t, Options{Workers: 1, SSEHeartbeat: 25 * time.Millisecond}, stub)
	job, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, job, StateRunning)

	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Read until two heartbeats arrive while the job idles mid-run,
	// then release the job and read to the terminal event.
	reader := bufio.NewReader(resp.Body)
	heartbeats := 0
	sawDone := false
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	readErr := make(chan error, 1)
	go func() {
		for {
			line, err := reader.ReadString('\n')
			if err != nil {
				readErr <- err
				return
			}
			lines <- strings.TrimRight(line, "\n")
		}
	}()
	released := false
	for !sawDone {
		select {
		case line := <-lines:
			switch {
			case strings.HasPrefix(line, ": heartbeat"):
				heartbeats++
				if heartbeats >= 2 && !released {
					released = true
					close(stub.block)
				}
			case line == "event: done":
				sawDone = true
			}
		case err := <-readErr:
			t.Fatalf("stream ended early (heartbeats=%d): %v", heartbeats, err)
		case <-deadline:
			t.Fatalf("timed out (heartbeats=%d, sawDone=%v)", heartbeats, sawDone)
		}
	}
	if heartbeats < 2 {
		t.Fatalf("saw %d heartbeats, want >= 2", heartbeats)
	}
}

// TestSSENoHeartbeatByDefault: with the interval unset, an idle stream
// stays silent (no comment frames) until real events arrive.
func TestSSENoHeartbeatByDefault(t *testing.T) {
	stub := &stubRunner{report: []byte("r"), block: make(chan struct{})}
	m := newStubManager(t, Options{Workers: 1}, stub)
	job, err := m.Submit(JobSpec{Experiment: "fig4"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, job, StateRunning)

	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()

	done := make(chan string, 1)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				done <- b.String()
				return
			}
		}
	}()
	// Give a (would-be) heartbeat window to elapse while idle, then
	// finish the job and collect the whole stream.
	time.Sleep(80 * time.Millisecond)
	close(stub.block)
	select {
	case body := <-done:
		if strings.Contains(body, ": heartbeat") {
			t.Fatalf("heartbeat emitted with heartbeats disabled:\n%s", body)
		}
		if !strings.Contains(body, "event: done") {
			t.Fatalf("stream missing terminal event:\n%s", body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not terminate")
	}
}
