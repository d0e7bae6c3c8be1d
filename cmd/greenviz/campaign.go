package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
)

// runCampaign executes a campaign spec file in-process: it spins up an
// ephemeral job manager (same engine the daemon embeds), sweeps the
// spec, and prints the deterministic report to stdout. Point progress
// narrates on stderr unless -quiet, so stdout bytes are identical at
// any -workers value — the same contract as -experiment all.
func runCampaign(path string, workers int, quiet bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec campaign.Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("campaign spec %s: %w", path, err)
	}

	// The queue must hold every in-flight point: the campaign engine
	// retries on a full queue, but sizing it to the hard cap makes the
	// serial path free of backoff noise.
	jobs := service.NewManager(service.Options{
		Workers:    workers,
		QueueDepth: campaign.HardMaxPoints,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		jobs.Shutdown(ctx)
	}()
	cm := campaign.NewManager(jobs, campaign.Options{PointWorkers: workers})
	defer cm.Close()

	c, err := cm.Start(spec)
	if err != nil {
		return err
	}

	progress := io.Discard
	if !quiet {
		progress = os.Stderr
	}
	idx := 0
	for {
		events, closed, wake := c.Events().After(idx)
		idx += len(events)
		for _, ev := range events {
			switch ev.Type {
			case "expanded":
				fmt.Fprintf(progress, "campaign %s: %d points\n", c.ID, ev.Points)
			case "point":
				note := ""
				if ev.Deduped {
					note = " (deduped)"
				}
				if ev.Error != "" {
					note += ": " + ev.Error
				}
				fmt.Fprintf(progress, "  point %d %s: %s%s\n", ev.Point, ev.Label, ev.State, note)
			}
		}
		if closed {
			break
		}
		if len(events) == 0 {
			<-wake
		}
	}

	report, ok := c.Report()
	if !ok {
		return fmt.Errorf("campaign %s finished %s", c.ID, c.State())
	}
	_, err = os.Stdout.Write(report)
	return err
}
