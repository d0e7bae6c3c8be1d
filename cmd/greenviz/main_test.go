package main

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// buildCLI builds the greenviz binary into a test temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "greenviz")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCLIRejectsPipelineFlagsElsewhere checks that a pipeline-mode flag
// given without -pipeline is a usage error (exit 2) raised before any
// run starts, instead of being silently ignored.
func TestCLIRejectsPipelineFlagsElsewhere(t *testing.T) {
	bin := buildCLI(t)
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-experiment", "table1", "-format", "xml", "-quiet"}, "-format"},
		{[]string{"-experiment", "table1", "-format", "json", "-quiet"}, "-format"},
		{[]string{"-experiment", "table1", "-events", "-quiet"}, "-events"},
		{[]string{"-experiment", "table1", "-frames", t.TempDir()}, "-frames"},
		{[]string{"-experiment", "table1", "-app", "ocean"}, "-app"},
		{[]string{"-experiment", "table1", "-device", "ssd"}, "-device"},
		{[]string{"-experiment", "all", "-case", "2"}, "-case"},
		{[]string{"-list", "-format", "text"}, "-format"},
		{[]string{"-campaign", "../../examples/campaigns/greenest-config.json", "-app", "heat"}, "-app"},
	} {
		cmd := exec.Command(bin, tc.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("greenviz %s: %v, want exit status 2", strings.Join(tc.args, " "), err)
		}
		if stdout.Len() != 0 {
			t.Errorf("greenviz %s printed to stdout:\n%.300s", strings.Join(tc.args, " "), stdout.Bytes())
		}
		if want := "greenviz: " + tc.flag + " applies only with -pipeline"; !strings.Contains(stderr.String(), want) {
			t.Errorf("greenviz %s: stderr %q, want %q", strings.Join(tc.args, " "), stderr.String(), want)
		}
	}
}

// TestCLIServesDaemonReports builds the real greenviz binary and checks
// that its flags resolve as greenvizd resolves a job's fields: a run's
// stdout is the report a service.Manager serves for the same JobSpec,
// zero values taking the daemon's defaults, and a value the daemon
// rejects makes the CLI fail.
func TestCLIServesDaemonReports(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI and runs pipeline simulations and table3")
	}

	bin := buildCLI(t)

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
