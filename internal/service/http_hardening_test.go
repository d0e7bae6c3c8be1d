package service

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestSubmitBodyTooLarge: the POST body cap turns an oversized spec
// into a 413 instead of an unbounded allocation.
func TestSubmitBodyTooLarge(t *testing.T) {
	srv, m := newTestServer(t, Options{Workers: 1, MaxBodyBytes: 512})

	big := `{"experiment":"` + strings.Repeat("a", 2048) + `"}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "512") {
		t.Errorf("413 body does not name the limit: %s", body)
	}
	if got := m.Metrics.Submitted.Load(); got != 0 {
		t.Errorf("oversized submit reached the manager (Submitted = %d)", got)
	}

	// A legitimate spec under the cap still goes through.
	ok, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"pipeline":"insitu","case":3,"real_substeps":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, ok.Body)
	ok.Body.Close()
	if ok.StatusCode != http.StatusAccepted {
		t.Errorf("valid submit under cap: status %d, want 202", ok.StatusCode)
	}
}

// TestSubmitTrailingGarbage: bytes after the spec object are an
// error, not silently discarded — a concatenated second spec would
// otherwise look accepted while never being submitted, and a stray
// closing bracket would pass for a well-formed body.
func TestSubmitTrailingGarbage(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})

	for _, body := range []string{
		`{"experiment":"fig4"}{"experiment":"table1"}`,
		`{"experiment":"fig4"} garbage`,
		`{"experiment":"fig4"} 42`,
		`{"experiment":"fig4"}}`,
		`{"experiment":"fig4"}]`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("trailing data %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Trailing whitespace (curl's natural newline) is not garbage.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader("{\"pipeline\":\"insitu\",\"case\":3,\"real_substeps\":1}\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("newline-terminated spec: status %d, want 202", resp.StatusCode)
	}
}

// TestMetricsExposesStore: with a store configured, /metrics carries
// the durable tier's gauges and counters alongside the job table size.
func TestMetricsExposesStore(t *testing.T) {
	store := openStore(t, t.TempDir(), 0, 0)
	srv, m := newTestServer(t, Options{Workers: 1, Store: store})
	stub := &stubRunner{report: []byte("stored report")}
	m.run = stub.run

	view, resp := postJob(t, srv, JobSpec{Experiment: "fig4"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitJobState(t, srv, view.ID, StateDone)

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"greenvizd_store_entries 1",
		"greenvizd_store_hits_total 0",
		"greenvizd_store_misses_total 1", // the cold submit probed the store
		"greenvizd_store_evictions_total 0",
		"greenvizd_store_corruptions_total 0",
		"greenvizd_jobs_tracked 1",
		"greenvizd_jobs_retired_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(string(body), "greenvizd_store_bytes ") ||
		strings.Contains(string(body), "greenvizd_store_bytes 0\n") {
		t.Errorf("store bytes gauge missing or zero after a persisted report:\n%s", body)
	}
}
