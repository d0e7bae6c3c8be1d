package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonCampaignResume is the campaign acceptance gate end to end:
//
//	gen 1 runs two of the example campaign's eight points as plain jobs
//	      into the store, then exits — the "daemon died mid-sweep"
//	      state (warm point reports, no campaign record);
//	gen 2 POSTs the bundled example campaign: the two warm points must
//	      be served from the store (deduped) and only the six cold ones
//	      executed, and the served report must hash to the committed
//	      golden digest — the same bytes the CLI prints;
//	gen 3 re-POSTs the finished campaign: every point is served from
//	      the store, so zero executions and a byte-identical report.
func TestDaemonCampaignResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon and runs eight pipeline simulations")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "greenvizd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	storeDir := filepath.Join(dir, "store")

	specPath := filepath.Join("..", "..", "examples", "campaigns", "greenest-config.json")
	campaignSpec, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatalf("read example campaign: %v", err)
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "campaign", "testdata", "greenest-config.sha256"))
	if err != nil {
		t.Fatalf("read golden digest: %v", err)
	}
	want, _, _ := strings.Cut(strings.TrimSpace(string(golden)), "  ")

	// startDaemon launches one generation against the shared store and
	// returns its base URL plus a stop function (SIGTERM + clean wait).
	startDaemon := func(gen int) (string, func()) {
		t.Helper()
		portFile := filepath.Join(dir, fmt.Sprintf("port-%d", gen))
		daemon := exec.Command(bin,
			"-addr", "127.0.0.1:0", "-portfile", portFile,
			"-store-dir", storeDir, "-drain-timeout", "2m")
		var stderr bytes.Buffer
		daemon.Stderr = &stderr
		if err := daemon.Start(); err != nil {
			t.Fatalf("start daemon gen %d: %v", gen, err)
		}
		var exitErr error
		exited := make(chan struct{})
		go func() { exitErr = daemon.Wait(); close(exited) }()
		t.Cleanup(func() {
			select {
			case <-exited:
			default:
				daemon.Process.Kill()
				<-exited
			}
			if t.Failed() {
				t.Logf("gen %d stderr:\n%s", gen, stderr.String())
			}
		})
		base := waitForPort(t, portFile, exited)
		stop := func() {
			if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatalf("gen %d SIGTERM: %v", gen, err)
			}
			select {
			case <-exited:
				if exitErr != nil {
					t.Fatalf("gen %d exit: %v\n%s", gen, exitErr, stderr.String())
				}
			case <-time.After(3 * time.Minute):
				t.Fatalf("gen %d did not exit after SIGTERM", gen)
			}
		}
		return base, stop
	}

	// Generation 1: warm two of the campaign's points as plain jobs.
	base, stop := startDaemon(1)
	for _, spec := range []string{
		`{"pipeline":"post","device":"hdd","case":1,"seed":1,"real_substeps":4}`,
		`{"pipeline":"post","device":"ssd","case":1,"seed":1,"real_substeps":4}`,
	} {
		id := submit(t, base, spec)
		waitDone(t, base, id, 5*time.Minute)
	}
	stop()

	// Generation 2: run the full campaign over the warm store.
	base, stop = startDaemon(2)
	id := postCampaign(t, base, campaignSpec, http.StatusAccepted)
	waitCampaignDone(t, base, id, 10*time.Minute)
	report := getCampaignReport(t, base, id)
	if got := fmt.Sprintf("%x", sha256.Sum256(report)); got != want {
		t.Errorf("campaign report diverged from golden digest\n  got  %s\n  want %s\nreport:\n%s", got, want, report)
	}
	if got := scrapeMetric(t, base, "greenvizd_executions_total"); got != "6" {
		t.Errorf("gen 2 executions_total = %s, want 6 (two points must come from the store)", got)
	}
	if got := scrapeMetric(t, base, "greenvizd_campaign_points_deduped_total"); got != "2" {
		t.Errorf("gen 2 campaign_points_deduped_total = %s, want 2", got)
	}
	if got := scrapeMetric(t, base, "greenvizd_campaign_points_run_total"); got != "6" {
		t.Errorf("gen 2 campaign_points_run_total = %s, want 6", got)
	}
	if got := scrapeMetric(t, base, "greenvizd_campaigns_completed_total"); got != "1" {
		t.Errorf("gen 2 campaigns_completed_total = %s, want 1", got)
	}
	// Idempotent resubmit: same content address, no second sweep.
	if again := postCampaign(t, base, campaignSpec, http.StatusOK); again != id {
		t.Errorf("resubmit returned campaign %s, want %s", again, id)
	}
	// Build-info and uptime satellites ride along on /metrics.
	metrics := scrapeAll(t, base)
	if !strings.Contains(metrics, "greenvizd_build_info{version=") {
		t.Errorf("/metrics lacks greenvizd_build_info:\n%.400s", metrics)
	}
	if up := scrapeMetric(t, base, "greenvizd_process_uptime_seconds"); !positiveFloat(up) {
		t.Errorf("greenvizd_process_uptime_seconds = %q, want > 0", up)
	}
	stop()

	// Generation 3: the finished campaign re-runs from its points'
	// stored reports — identical bytes, zero executions.
	base, stop = startDaemon(3)
	id3 := postCampaign(t, base, campaignSpec, http.StatusAccepted)
	waitCampaignDone(t, base, id3, time.Minute)
	if id3 != id {
		t.Errorf("gen 3 campaign ID %s, want %s", id3, id)
	}
	report3 := getCampaignReport(t, base, id3)
	if !bytes.Equal(report, report3) {
		t.Errorf("gen 3 campaign report is not byte-identical")
	}
	if got := scrapeMetric(t, base, "greenvizd_executions_total"); got != "0" {
		t.Errorf("gen 3 executions_total = %s, want 0 (every point must come from the store)", got)
	}
	stop()
}

func postCampaign(t *testing.T, base string, spec []byte, wantStatus int) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/campaigns: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /v1/campaigns status %d, want %d: %s", resp.StatusCode, wantStatus, body)
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("decode campaign view: %v", err)
	}
	return view.ID
}

func waitCampaignDone(t *testing.T, base, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatalf("GET campaign: %v", err)
		}
		var view struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode campaign view: %v", err)
		}
		switch view.State {
		case "done":
			return
		case "failed", "canceled":
			t.Fatalf("campaign %s ended %s", id, view.State)
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish within %s", id, timeout)
}

func getCampaignReport(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/report")
	if err != nil {
		t.Fatalf("GET campaign report: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("campaign report status %d: %s", resp.StatusCode, body)
	}
	return body
}

func scrapeAll(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(body)
}

func positiveFloat(s string) bool {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return err == nil && f > 0
}
