package main

import (
	"fmt"
	"io"

	greenviz "repro"
)

// eventPrinter is the CLI's -events consumer: it narrates the
// telemetry stream to stderr so a run's structure — run and stage
// boundaries, per-stage energy, retries, injected faults — is visible
// live without disturbing stdout (which must stay byte-identical for
// the golden harness). Per-sample energy readings and stage starts are
// skipped as too chatty for a terminal; the trace profile already
// captures them.
type eventPrinter struct {
	w io.Writer
}

func (p *eventPrinter) Consume(ev greenviz.TelemetryEvent) {
	switch ev.Kind {
	case greenviz.TelemetryRunStart:
		fmt.Fprintf(p.w, "event: run %s start\n", ev.Run)
	case greenviz.TelemetryRunEnd:
		fmt.Fprintf(p.w, "event: run %s end t=%.1fs\n", ev.Run, float64(ev.End))
	case greenviz.TelemetryStageDone:
		fmt.Fprintf(p.w, "event: stage %-13s %8.2fs  %9.1f J  t=%.1fs\n",
			ev.Stage, float64(ev.Duration()), float64(ev.Energy()), float64(ev.End))
	case greenviz.TelemetryRetryAttempt:
		fmt.Fprintf(p.w, "event: retry %s attempt=%d backoff=%.2fs\n",
			ev.Op, ev.Attempt, float64(ev.Backoff))
	case greenviz.TelemetryFaultInjected:
		if ev.Value > 0 {
			fmt.Fprintf(p.w, "event: fault %s (stall %.2fs)\n", ev.Source, ev.Value)
		} else {
			fmt.Fprintf(p.w, "event: fault %s\n", ev.Source)
		}
	}
}
