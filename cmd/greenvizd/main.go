// Command greenvizd serves the greenviz experiment suite as a
// long-running service: submit jobs over HTTP, watch per-stage
// progress live over SSE, and fetch deterministic report bytes.
// Identical jobs are content-addressed and deduplicated — N concurrent
// submits of the same spec cost one underlying run — and, with
// -store-dir set, finished reports persist to a CRC-checked on-disk
// store so a restarted daemon serves them byte-identically without
// re-executing.
//
// Usage:
//
//	greenvizd -addr 127.0.0.1:8866 -store-dir /var/lib/greenvizd
//	curl -s localhost:8866/v1/experiments
//	curl -s -XPOST localhost:8866/v1/jobs -d '{"experiment":"fig4"}'
//	curl -N localhost:8866/v1/jobs/job-000001/events
//	curl -s localhost:8866/v1/jobs/job-000001/report
//	curl -s -XPOST localhost:8866/v1/campaigns -d @examples/campaigns/greenest-config.json
//	curl -s localhost:8866/v1/campaigns/<id>/report
//
// Campaigns (POST /v1/campaigns) sweep a cross-product of pipeline,
// device, power-cap, and config axes as one unit: points run as
// ordinary content-addressed jobs (identical points cost one run, warm
// restarts serve from the store), and the campaign report folds the
// results into marginal tables, an energy-vs-time Pareto frontier, and
// a greenest-configuration recommendation.
//
// On SIGINT/SIGTERM the daemon drains: new submits are rejected with
// 503 while queued and running jobs finish (bounded by -drain-timeout,
// after which stragglers are canceled at their next stage boundary),
// then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/resultstore"
	"repro/internal/service"
)

// daemonConfig bundles the flag set so run and its tests share one
// shape.
type daemonConfig struct {
	addr         string
	workers      int
	queueDepth   int
	drainTimeout time.Duration
	portFile     string

	storeDir       string
	storeMaxBytes  int64
	storeMaxEntr   int
	jobRetention   time.Duration
	sseHeartbeat   time.Duration
	pointWorkers   int
	maxBodyBytes   int64
	readHeaderWait time.Duration
	readWait       time.Duration
	idleWait       time.Duration
}

// init stamps the build-info metric from the binary's own module
// metadata, so /metrics reports which build is serving.
func init() {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		service.BuildVersion = bi.Main.Version
	}
}

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8866", "listen address (use :0 for an ephemeral port)")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "concurrent job executions")
	flag.IntVar(&cfg.queueDepth, "queue", 64, "submit queue depth; a full queue rejects with 429")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 10*time.Minute, "graceful-shutdown bound; running jobs canceled after this")
	flag.StringVar(&cfg.portFile, "portfile", "", "write the bound listen address to this file (for scripts starting on :0)")
	flag.StringVar(&cfg.storeDir, "store-dir", "", "persist finished reports here (CRC-checked, LRU-bounded); empty disables persistence")
	flag.Int64Var(&cfg.storeMaxBytes, "store-max-bytes", 256<<20, "result-store byte budget; 0 is unbounded")
	flag.IntVar(&cfg.storeMaxEntr, "store-max-entries", 4096, "result-store entry budget; 0 is unbounded")
	flag.DurationVar(&cfg.jobRetention, "job-retention", time.Hour, "prune terminal jobs from the job table after this; 0 keeps them forever")
	flag.DurationVar(&cfg.sseHeartbeat, "sse-heartbeat", 15*time.Second, "emit `: heartbeat` comments on idle SSE streams at this interval; 0 disables")
	flag.IntVar(&cfg.pointWorkers, "campaign-point-workers", 4, "outstanding point submissions per campaign")
	flag.Int64Var(&cfg.maxBodyBytes, "max-body-bytes", 1<<20, "POST body cap; larger submissions are rejected with 413")
	flag.DurationVar(&cfg.readHeaderWait, "read-header-timeout", 10*time.Second, "close connections whose request headers stall longer than this")
	flag.DurationVar(&cfg.readWait, "read-timeout", time.Minute, "close connections whose full request (headers+body) stalls longer than this")
	flag.DurationVar(&cfg.idleWait, "idle-timeout", 2*time.Minute, "close kept-alive connections idle longer than this")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "greenvizd: %v\n", err)
		os.Exit(1)
	}
}

// newHTTPServer builds the daemon's http.Server with the hardening
// timeouts applied. WriteTimeout stays zero deliberately: /events
// streams SSE for a job's whole lifetime, and a write deadline would
// sever live progress mid-run; slow readers are bounded by IdleTimeout
// between requests and by the kernel's send buffer within one.
func newHTTPServer(cfg daemonConfig, h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: cfg.readHeaderWait,
		ReadTimeout:       cfg.readWait,
		IdleTimeout:       cfg.idleWait,
	}
}

func run(cfg daemonConfig) error {
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.portFile != "" {
		if err := os.WriteFile(cfg.portFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("portfile: %w", err)
		}
	}

	var store *resultstore.Store
	if cfg.storeDir != "" {
		store, err = resultstore.Open(resultstore.Options{
			Dir:        cfg.storeDir,
			MaxBytes:   cfg.storeMaxBytes,
			MaxEntries: cfg.storeMaxEntr,
		})
		if err != nil {
			ln.Close()
			return err
		}
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "greenvizd: result store %s warm with %d reports (%d bytes, %d corrupt evicted)\n",
			cfg.storeDir, st.Entries, st.Bytes, st.Corruptions)
	}

	m := service.NewManager(service.Options{
		Workers:      cfg.workers,
		QueueDepth:   cfg.queueDepth,
		MaxBodyBytes: cfg.maxBodyBytes,
		Store:        store,
		JobRetention: cfg.jobRetention,
		SSEHeartbeat: cfg.sseHeartbeat,
	})
	cm := campaign.NewManager(m, campaign.Options{PointWorkers: cfg.pointWorkers})
	mux := service.Handler(m)
	cm.Register(mux)
	srv := newHTTPServer(cfg, mux)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "greenvizd: listening on %s (workers=%d queue=%d)\n", ln.Addr(), cfg.workers, cfg.queueDepth)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "greenvizd: %v, draining (timeout %s)\n", s, cfg.drainTimeout)
	case err := <-serveErr:
		return err
	}

	// Drain the manager first — submits now bounce with 503 while the
	// API keeps answering status/report/event requests for the jobs
	// being drained — then stop the HTTP server. The manager closes
	// the result store once the pool is idle, so every drained job's
	// report is durable before exit.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	// Campaigns first: Close cancels their point waits, then the job
	// manager drains and closes the store.
	cm.Close()
	if err := m.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "greenvizd: drain timeout, canceled remaining jobs: %v\n", err)
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := srv.Shutdown(httpCtx); err != nil {
		srv.Close()
	}
	fmt.Fprintln(os.Stderr, "greenvizd: drained, bye")
	return nil
}
