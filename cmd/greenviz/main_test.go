package main

import (
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// TestCLIServesDaemonReports builds the real greenviz binary and checks
// that its flags resolve as greenvizd resolves a job's fields: a run's
// stdout is the report a service.Manager serves for the same JobSpec,
// zero values taking the daemon's defaults, and a value the daemon
// rejects makes the CLI fail.
func TestCLIServesDaemonReports(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI and runs pipeline simulations and table3")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "greenviz")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	m := service.NewManager(service.Options{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		m.Shutdown(ctx)
	})
	serve := func(spec service.JobSpec) []byte {
		t.Helper()
		job, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("Submit(%+v): %v", spec, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		if st := job.Wait(ctx); st != service.StateDone {
			t.Fatalf("job %+v ended %s: %s", spec, st, job.Err())
		}
		report, _ := job.Report()
		return report
	}

	for _, tc := range []struct {
		args []string
		spec service.JobSpec
	}{
		{
			[]string{"-pipeline", "insitu", "-case", "3", "-real-substeps", "0", "-format", "json"},
			service.JobSpec{Pipeline: "insitu", Case: 3, RealSubsteps: 0},
		},
		{
			[]string{"-pipeline", "insitu", "-case", "3", "-seed", "0", "-format", "json"},
			service.JobSpec{Pipeline: "insitu", Case: 3, Seed: 0},
		},
		{
			[]string{"-experiment", "table3", "-fio-gib", "0", "-quiet"},
			service.JobSpec{Experiment: "table3", FioGiB: 0},
		},
	} {
		cmd := exec.Command(bin, tc.args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		got, err := cmd.Output()
		if err != nil {
			t.Errorf("greenviz %s: %v\n%s", strings.Join(tc.args, " "), err, stderr.Bytes())
			continue
		}
		if want := serve(tc.spec); !bytes.Equal(got, want) {
			t.Errorf("greenviz %s printed a different report than the service serves for %+v\n got: %.300s\nwant: %.300s",
				strings.Join(tc.args, " "), tc.spec, got, want)
		}
	}

	args := []string{"-pipeline", "insitu", "-case", "3", "-real-substeps", "5000", "-format", "json"}
	if out, err := exec.Command(bin, args...).CombinedOutput(); err == nil {
		t.Errorf("greenviz %s exited 0, want an out-of-range error:\n%.300s", strings.Join(args, " "), out)
	}

	// An unknown format fails before the run: the telemetry narration
	// never starts.
	args = []string{"-pipeline", "post", "-case", "1", "-real-substeps", "1536", "-format", "xml", "-events"}
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Errorf("greenviz %s exited 0, want an unknown-format error", strings.Join(args, " "))
	}
	if !strings.Contains(stderr.String(), `unknown format "xml"`) || strings.Contains(stderr.String(), "event: run") {
		t.Errorf("greenviz %s: stderr should name the unknown format and hold no run events:\n%.300s",
			strings.Join(args, " "), stderr.Bytes())
	}
}
