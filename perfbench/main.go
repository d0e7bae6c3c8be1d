// Command perfbench is greenviz's host-time benchmark. It runs one named
// workload built from a workload seed, checks the program's outputs,
// and prints its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload pipelines --seed 1 --seconds 25 --trace 0
//
// Workloads: pipelines (closed loop of pipeline runs), fio (the Table
// III disk tests) and daemon (greenvizd in-process under an open-loop
// request mix). --trace 0 prints the end-to-end metrics; --trace 1 runs
// the same workload with spans at every layer boundary, prints the
// per-layer metrics, and writes the spans under .bench_build/perfbench.
// README.md maps each workload to what it judges.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Env is what every workload receives.
type Env struct {
	// Root is the checkout the benchmark runs from.
	Root    string
	Seed    uint64
	Seconds int
	// Clients bounds the load: closed-loop clients or open-loop
	// connections, never more than the host's CPUs.
	Clients int
	// Rec is nil on untraced runs.
	Rec *Recorder
	// Dir is a scratch directory inside the checkout that the workload
	// may fill; the benchmark removes it on exit.
	Dir string
}

// Outcome is what a workload measured.
type Outcome struct {
	Attempted, Failed int
	// Problems describes every failed output check.
	Problems []string
	// E2E holds the gated end-to-end metrics (untraced runs).
	E2E map[string]Metric
	// Detail holds the workload's own end-to-end figures under their
	// descriptive names; printed, not gated.
	Detail map[string]Metric
	// Layers holds per-layer metrics (traced runs).
	Layers map[string]Metric
}

// fail records a failed check.
func (o *Outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Problems) < 20 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd lists the gated end-to-end metrics every workload reports,
// in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"mean_rss_mib", "MiB"},
}

// perLayer lists the per-layer metrics every traced run reports, in
// BENCHMARK.json order. A layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.run_ms", "ms"},
	{"core.self_ms", "ms"},
	{"stage.simulation.self_ms", "ms"},
	{"stage.nnwrite.self_ms", "ms"},
	{"stage.nnread.self_ms", "ms"},
	{"stage.visualization.self_ms", "ms"},
	{"stage.nettransfer.self_ms", "ms"},
	{"solver.step_ms", "ms"},
	{"viz.render_ms", "ms"},
	{"viz.encode_png_ms", "ms"},
	{"checkpoint.encode_ms", "ms"},
	{"viz.frames", "count"},
	{"viz.png_kib_per_frame", "KiB"},
	{"storage.disk_requests", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"fio.seqread_ms", "ms"},
	{"fio.randread_ms", "ms"},
	{"fio.seqwrite_ms", "ms"},
	{"fio.randwrite_ms", "ms"},
	{"fio.virtual_s", "s"},
	{"http.post_jobs.p50_us", "us"},
	{"http.post_jobs.p99_us", "us"},
	{"http.get_report.p50_us", "us"},
	{"http.events.p50_ms", "ms"},
	{"http.post_campaigns.p50_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.executions", "count"},
	{"service.queue_wait.p50_ms", "ms"},
	{"service.exec.p50_ms", "ms"},
	{"resultstore.open_ms", "ms"},
	{"resultstore.hit_ratio", "ratio"},
	{"campaign.points_deduped_ratio", "ratio"},
	{"gc.alloc_mib_per_op", "MiB"},
	{"gc.cycles_per_op", "count"},
	{"loadgen.late.p99_ms", "ms"},
}

var workloads = map[string]func(Env) (Outcome, error){
	"pipelines": runPipelines,
	"fio":       runFio,
	"daemon":    runDaemon,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: pipelines, fio, daemon")
	seed := flag.Uint64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := flag.Int("seconds", 25, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs traced and prints per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload pipelines|fio|daemon, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}

	// Load stays within the host: as many clients as CPUs, and no more
	// Go threads running Go code than that.
	clients := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > clients {
		runtime.GOMAXPROCS(clients)
	}
	if clients > runtime.GOMAXPROCS(0) {
		clients = runtime.GOMAXPROCS(0)
	}

	outDir := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)

	env := Env{Root: root, Seed: *seed, Seconds: *seconds, Clients: clients, Dir: dir}
	if *trace == 1 {
		env.Rec = NewRecorder()
	}
	prov := provenance(root, *workload, *seed, *trace)
	printJSONLine(map[string]any{"provenance": prov})

	// The peak of a garbage-collected process depends on where
	// collections happen to fall, so the gated memory figure is the mean
	// resident memory over the run.
	rss := startSampler(20*time.Millisecond, rssMiB)
	out, err := wl(env)
	meanRSS := mean(rss.Stop())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, p := range out.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	if out.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", *workload)
		return 1
	}

	out.Detail["failed_ratio"] = Metric{float64(out.Failed) / float64(out.Attempted), "ratio"}
	out.Detail["max_rss_mib"] = Metric{maxRSSMiB(), "MiB"}
	printJSONLine(map[string]any{"workload_metrics": out.Detail, "workload": *workload})

	res := Result{
		Correct:   out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]Metric{},
	}
	if env.Rec != nil {
		for _, m := range perLayer {
			v := out.Layers[m.name]
			res.Metrics[m.name] = Metric{v.Value, m.unit}
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := env.Rec.WriteJSONL(path, map[string]any{"provenance": prov}); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(env.Rec.Spans()), path)
	} else {
		out.E2E["mean_rss_mib"] = Metric{meanRSS, "MiB"}
		for _, m := range endToEnd {
			v, ok := out.E2E[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *workload, m.name)
				return 1
			}
			res.Metrics[m.name] = Metric{v.Value, m.unit}
		}
	}
	printJSONLine(res)
	return 0
}

// repoRoot returns the working directory once it is confirmed to be
// the root of a greenviz checkout: the benchmark needs the program's
// sources and golden digests beside it.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, p := range []string{"go.mod", "greenviz.go", "internal/experiments/testdata/golden"} {
		if _, err := os.Stat(filepath.Join(wd, p)); err != nil {
			return "", fmt.Errorf("run from the root of a greenviz checkout: %w", err)
		}
	}
	return wd, nil
}

func printJSONLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of numbers and strings
	}
	fmt.Println(string(b))
}

// sampler calls sample at a fixed interval on its own goroutine, first
// at once, until stopped.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startSampler(every time.Duration, sample func() (float64, bool)) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if v, ok := sample(); ok {
				s.samples = append(s.samples, v)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the samples.
func (s *sampler) Stop() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// rssMiB reads the current resident set size.
func rssMiB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// maxRSSMiB returns the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// provenance describes the host and the code measured, so figures from
// different hosts or commits are never compared unknowingly.
func provenance(root, workload string, seed uint64, trace int) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the checkout's git commit, or "unknown" outside a git
// work tree.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
