package service

import (
	"bytes"
	"context"
	"testing"
)

// TestRunSpecFaultsReachClusterPipelines: a faulted hybrid job is a
// different run from the same job without faults, so its report — the
// bytes the store keeps under the job's digest — differs too.
func TestRunSpecFaultsReachClusterPipelines(t *testing.T) {
	run := func(faults string) ([]byte, *Metrics) {
		t.Helper()
		spec, err := JobSpec{Pipeline: "hybrid", Case: 3, RealSubsteps: 1, Faults: faults}.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		met := &Metrics{}
		ctx := context.Background()
		report, err := runSpec(ctx, spec, newJobTelemetry(ctx, NewEventLog[Event](), met))
		if err != nil {
			t.Fatal(err)
		}
		return report, met
	}
	clean, _ := run("")
	faulted, met := run("writeerr=0.5,bitrot=0.5,seed=3")
	if bytes.Equal(clean, faulted) {
		t.Error("faulted hybrid job reported the fault-free bytes")
	}
	if met.FaultsInjected.Load() == 0 {
		t.Error("faulted hybrid job fired no faults")
	}
}
