package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/resultstore"
	"repro/internal/service"
)

// daemonMix is the daemon workload's open-loop traffic per second.
// Fresh jobs keep the two job workers partly busy; everything else is
// served from the caches. The heavy operations are evenly spaced.
var daemonMix = []classWeight{
	{"hit", 70, false},    // repeat submit of a stored spec, then its report
	{"miss", 3, true},     // submit of a never-seen spec, wait for it, report
	{"rehit", 1, true},    // resubmit of the spec a miss ran last
	{"report", 4, false},  // GET of a finished job's report
	{"list", 2, false},    // GET of one /v1/jobs page
	{"campaign", 1, true}, // campaign over stored points, wait, report
}

// daemonDeadline is how long after its due time an operation of each
// class may finish and still count toward the goodput: about twice the
// class's median on a 2-vCPU Xeon, so a server that slows markedly
// loses goodput where the offered rate would not move.
var daemonDeadline = map[string]time.Duration{
	"hit":      2 * time.Millisecond,
	"rehit":    2 * time.Millisecond,
	"report":   2 * time.Millisecond,
	"list":     2 * time.Millisecond,
	"campaign": 8 * time.Millisecond,
	"miss":     300 * time.Millisecond,
}

// setupRounds is how many times the daemon starts, setupGap apart so
// the starts do not all fall into one spell of host speed; setup_s is
// the median.
const (
	setupRounds = 31
	setupGap    = 100 * time.Millisecond
)

// goldenExperiments are the seed-1 experiment jobs the daemon serves
// from its store and checks against the committed golden digests:
// the ones cheap enough to regenerate at every benchmark start.
var goldenExperiments = []string{"table1", "table2", "fig6"}

// Opaque request headers that let the server-side spans of a request
// join the client-side operation that sent it.
const (
	opHeader   = "X-Perfbench-Op"
	spanHeader = "X-Perfbench-Span"
)

// daemonPool is the set of stored specs the hits draw from, with the
// report bytes their fresh runs produced.
type daemonPool struct {
	specs    []service.JobSpec
	reports  map[string][]byte // digest → fresh-run report
	golden   map[string]string // experiment → golden sha256
	campaign map[string]campaignRef
}

// campaignRef is one campaign shape: its spec (named per POST) and the
// report a reference run of it produced, minus its first line (which
// names the campaign and its ID).
type campaignRef struct {
	spec campaign.Spec
	tail []byte
}

// campaignShapes returns the campaigns the daemon posts: each sweeps
// pipeline × device over a base whose points are all in the hit pool.
func campaignShapes(seed uint64) []campaign.Spec {
	var out []campaign.Spec
	for _, app := range []string{"heat", "ocean"} {
		out = append(out, campaign.Spec{
			Name: "shape-" + app,
			Base: service.JobSpec{App: app, Case: 3, Seed: hitSeed(seed)},
			Axes: []campaign.Axis{
				{Name: "pipeline", Values: []string{"post", "insitu", "intransit", "hybrid"}},
				{Name: "device", Values: []string{"hdd", "ssd"}},
			},
		})
	}
	return out
}

// hitSeed is the node seed of every stored pipeline spec.
func hitSeed(seed uint64) uint64 { return 100 + seed }

// hitSpecs returns the stored pipeline specs: every point of every
// campaign shape.
func hitSpecs(seed uint64) ([]service.JobSpec, error) {
	var out []service.JobSpec
	for _, c := range campaignShapes(seed) {
		norm, err := c.Normalized()
		if err != nil {
			return nil, err
		}
		points, err := campaign.Expand(norm)
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			out = append(out, p.Spec)
		}
	}
	return out, nil
}

// freshSpec returns the k-th never-seen spec: a cheap case-3 heat run
// whose seed no other spec uses, alternating pipelines and devices so
// every seed's fresh jobs cost the same.
func freshSpec(seed uint64, k int) service.JobSpec {
	return service.JobSpec{
		Pipeline: []string{"post", "insitu"}[k%2],
		Device:   []string{"hdd", "ssd"}[(k/2)%2],
		App:      "heat",
		Case:     3,
		Seed:     1_000_000 + seed*100_000 + uint64(k),
	}
}

// daemonStack is one running daemon: the result store, the job and
// campaign managers, and the HTTP server on loopback.
type daemonStack struct {
	store  *resultstore.Store
	jobs   *service.Manager
	camps  *campaign.Manager
	srv    *http.Server
	served chan error
	base   string // http://host:port
}

// storeOptions are greenvizd's default store budgets.
func storeOptions(dir string) resultstore.Options {
	return resultstore.Options{Dir: dir, MaxBytes: 256 << 20, MaxEntries: 4096}
}

// managerOptions are greenvizd's defaults, with as many job workers as
// the load has clients.
func managerOptions(workers int, store *resultstore.Store) service.Options {
	return service.Options{
		Workers:      workers,
		QueueDepth:   64,
		MaxBodyBytes: 1 << 20,
		Store:        store,
		JobRetention: time.Hour,
		SSEHeartbeat: 15 * time.Second,
	}
}

// startDaemon opens the store (a warm start: it validates every
// record), starts the managers and serves the API as greenvizd does,
// and returns once a request has been answered. It reports how long
// the store took to open.
func startDaemon(dir string, workers int, rec *Recorder) (*daemonStack, time.Duration, error) {
	t0 := time.Now()
	store, err := resultstore.Open(storeOptions(dir))
	if err != nil {
		return nil, 0, err
	}
	openTime := time.Since(t0)
	d := &daemonStack{store: store, served: make(chan error, 1)}
	d.jobs = service.NewManager(managerOptions(workers, store))
	d.camps = campaign.NewManager(d.jobs, campaign.Options{PointWorkers: 4})
	mux := service.Handler(d.jobs)
	d.camps.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{
		Handler:           traceHandler(rec, mux),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { d.served <- d.srv.Serve(ln) }()

	probe := &http.Client{Transport: &http.Transport{Proxy: nil}}
	defer probe.CloseIdleConnections()
	resp, err := probe.Get(d.base + "/v1/pipelines")
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, 0, fmt.Errorf("probe: %s", resp.Status)
	}
	return d, openTime, nil
}

// stop drains the daemon as greenvizd does on SIGTERM: campaigns, then
// jobs (which closes the store), then the HTTP server.
func (d *daemonStack) stop() {
	if d.camps != nil {
		d.camps.Close()
	}
	if d.jobs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		d.jobs.Shutdown(ctx) // returns after canceling stragglers on timeout
		cancel()
	} else if d.store != nil {
		d.store.Close()
	}
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := d.srv.Shutdown(ctx); err != nil {
			d.srv.Close()
		}
		cancel()
		<-d.served
	}
}

// traceHandler records one span per request, named for its route and
// joined to the client's operation through the request headers. A nil
// recorder leaves the handler as it is.
func traceHandler(rec *Recorder, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.Atoi(r.Header.Get(opHeader))
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := rec.Begin(op, parent, routeName(r))
		h.ServeHTTP(w, r)
		rec.End(id)
	})
}

// routeName names a request's route for its span.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "http.post_jobs"
	case r.Method == http.MethodPost && p == "/v1/campaigns":
		return "http.post_campaigns"
	case strings.HasSuffix(p, "/events"):
		return "http.events"
	case strings.HasPrefix(p, "/v1/campaigns/") && strings.HasSuffix(p, "/report"):
		return "http.get_campaign_report"
	case strings.HasSuffix(p, "/report"):
		return "http.get_report"
	case p == "/v1/jobs":
		return "http.list_jobs"
	}
	return "http.other"
}

// prepareStore runs every stored spec fresh through a manager with a
// store in dir, then closes it: the daemon later warm-starts from that
// directory. It returns the pool with the fresh reports, checking the
// experiment reports against their golden digests and rendering one
// reference report per campaign shape.
func prepareStore(env Env, dir string) (*daemonPool, error) {
	pool := &daemonPool{reports: map[string][]byte{}, golden: map[string]string{}, campaign: map[string]campaignRef{}}
	specs, err := hitSpecs(env.Seed)
	if err != nil {
		return nil, err
	}
	for _, id := range goldenExperiments {
		b, err := os.ReadFile(filepath.Join(env.Root, "internal", "experiments", "testdata", "golden", id+".sha256"))
		if err != nil {
			return nil, err
		}
		// sha256sum format: "<hex>  <name>".
		pool.golden[id], _, _ = strings.Cut(strings.TrimSpace(string(b)), " ")
		specs = append(specs, service.JobSpec{Experiment: id})
	}

	store, err := resultstore.Open(storeOptions(dir))
	if err != nil {
		return nil, err
	}
	m := service.NewManager(managerOptions(env.Clients, store))
	cm := campaign.NewManager(m, campaign.Options{PointWorkers: 4})
	defer func() {
		cm.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		m.Shutdown(ctx)
		cancel()
	}()

	var jobs []*service.Job
	for _, s := range specs {
		j, err := m.Submit(s)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", s.Describe(), err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i, j := range jobs {
		if st := j.Wait(ctx); st != service.StateDone {
			return nil, fmt.Errorf("prepare %s: %s %s", j.Spec.Describe(), st, j.Err())
		}
		body, _ := j.Report()
		pool.specs = append(pool.specs, specs[i])
		pool.reports[j.Digest()] = body
		if want, ok := pool.golden[j.Spec.Experiment]; ok && sha(body) != want {
			return nil, fmt.Errorf("experiment %s: fresh report sha256 %s, golden %s", j.Spec.Experiment, sha(body), want)
		}
	}
	for _, shape := range campaignShapes(env.Seed) {
		c, err := cm.Start(shape)
		if err != nil {
			return nil, err
		}
		if st := c.Wait(ctx); st != service.StateDone {
			return nil, fmt.Errorf("reference campaign %s: %s", shape.Name, st)
		}
		body, _ := c.Report()
		_, tail, _ := bytes.Cut(body, []byte("\n"))
		pool.campaign[shape.Name] = campaignRef{spec: shape, tail: tail}
	}
	return pool, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// daemonRun is the load phase's shared state. Its operations return an
// error for a failed request and for a wrong output alike.
type daemonRun struct {
	env   Env
	pool  *daemonPool
	d     *daemonStack
	laneA *lane // submits, reports, listings, campaigns
	laneB *lane // the long waits on fresh jobs

	mu        sync.Mutex
	lastFresh *freshJob // the fresh job whose report arrived last
	done      []doneJob // finished jobs whose report a GET may fetch
	cursor    string    // the job listing's next page
	queueWait []float64
	exec      []float64
}

// doneJob is a finished job and the report it must serve.
type doneJob struct {
	id     string
	report []byte
}

// freshJob is a fresh job's spec and the report its run served.
type freshJob struct {
	spec   service.JobSpec
	report []byte
}

// runDaemon is the daemon workload: greenvizd in-process on loopback,
// warm-started from a store the benchmark fills first, under the
// open-loop daemonMix over at most two connections.
func runDaemon(env Env) (Outcome, error) {
	o := Outcome{E2E: map[string]Metric{}, Detail: map[string]Metric{}, Layers: map[string]Metric{}}
	dir := filepath.Join(env.Dir, "store")
	pool, err := prepareStore(env, dir)
	if err != nil {
		return o, err
	}

	// Set-up: warm start, setupRounds times; the last daemon serves the
	// load.
	var setups, opens []float64
	var d *daemonStack
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			d.stop()
			time.Sleep(setupGap)
		}
		start := time.Now()
		var open time.Duration
		d, open, err = startDaemon(dir, env.Clients, env.Rec)
		if err != nil {
			return o, err
		}
		setups = append(setups, time.Since(start).Seconds())
		opens = append(opens, ms(open))
	}
	if st := d.store.Stats(); st.Entries < len(pool.reports) || st.Corruptions != 0 {
		o.fail("warm start holds %d reports (%d corrupt), want %d", st.Entries, st.Corruptions, len(pool.reports))
	}

	arrivals := schedule(env.Seed, env.Seconds, daemonMix)
	r := &daemonRun{env: env, pool: pool, d: d, laneA: newLane(3 * len(arrivals))}
	r.laneB = r.laneA
	if env.Clients > 1 {
		r.laneB = newLane(len(arrivals))
	}
	// Each hit's spec is drawn up front so the seed, not the order
	// operations finish in, decides it.
	rng := rand.New(rand.NewPCG(env.Seed, 0x417))
	hitPick := make([]int, countClass(arrivals, "hit"))
	for i := range hitPick {
		hitPick[i] = rng.IntN(len(pool.specs))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// A probe on its own goroutine samples host speed through the load;
	// running it on the generator would delay the open loop it times.
	pr := newProbe()
	probes := startSampler(100*time.Millisecond, func() (float64, bool) { return pr.run(), true })
	g := &generator{}
	g.run(arrivals, func(a arrival, due time.Time, finish func(error)) {
		op := env.Rec.NewOp()
		span := env.Rec.Begin(op, 0, "loadgen."+a.Class)
		t := &opCtx{op: op, span: span}
		done := func(err error) {
			env.Rec.End(span)
			finish(err)
		}
		switch a.Class {
		case "hit":
			r.laneA.tasks <- func(c *http.Client) { done(r.hit(c, t, pool.specs[hitPick[a.Index]])) }
		case "miss":
			r.miss(t, a.Index, done)
		case "rehit":
			r.laneA.tasks <- func(c *http.Client) { done(r.rehit(c, t, a.Index)) }
		case "report":
			r.laneA.tasks <- func(c *http.Client) { done(r.report(c, t, a.Index)) }
		case "list":
			r.laneA.tasks <- func(c *http.Client) { done(r.list(c, t)) }
		case "campaign":
			r.laneA.tasks <- func(c *http.Client) { done(r.campaign(c, t, a.Index)) }
		}
	})
	probeMS := median(probes.Stop())
	runtime.ReadMemStats(&after)
	r.laneA.close()
	if r.laneB != r.laneA {
		r.laneB.close()
	}

	met := &d.jobs.Metrics
	executions := met.Executions.Load()
	storeStats := d.store.Stats()
	d.stop()

	// Checks: every operation succeeded with the right bytes; only the
	// fresh specs executed.
	o.Attempted = len(g.timings)
	for _, t := range g.timings {
		if t.Err != nil {
			o.fail("%s: %v", t.Class, t.Err)
		}
	}
	misses := countClass(arrivals, "miss")
	if int(executions) != misses {
		o.fail("the daemon executed %d runs for %d fresh specs", executions, misses)
	}
	if rej := met.Rejected.Load(); rej != 0 {
		o.fail("the daemon rejected %d submits", rej)
	}

	hits := g.latencies("hit")
	missLat := g.latencies("miss")
	campLat := g.latencies("campaign")
	warnTail("hits", len(hits), 99)
	warnTail("fresh jobs", len(missLat), 75)
	// The gated figures are at the reference host's speed: every time is
	// scaled by the run's host factor, and the goodput deadlines by its
	// inverse.
	f := ratio(probeRefMS, probeMS)
	deadlines := map[string]time.Duration{}
	for class, d := range daemonDeadline {
		deadlines[class] = time.Duration(float64(d) / f)
	}
	// The offered rate is fixed by the schedule, so the gated throughput
	// is the goodput: operations that finished correctly within their
	// class's deadline of their due time, per second of schedule.
	o.E2E["setup_s"] = Metric{median(setups) * f, "s"}
	o.E2E["throughput_per_s"] = Metric{float64(g.onTime(deadlines)) / float64(env.Seconds), "1/s"}
	// The gated pair is the median cached job and the p75 fresh job:
	// both track host work. The cached-job tail is printed but not
	// gated: it is set by which requests happen to meet a fresh run on
	// the two cores, and moves by half from run to run.
	o.E2E["latency_ms"] = Metric{percentile(hits, 50) * f, "ms"}
	o.E2E["latency_tail_ms"] = Metric{percentile(missLat, 75) * f, "ms"}
	o.Detail["raw_setup_s"] = Metric{median(setups), "s"}
	o.Detail["goodput_per_s"] = Metric{float64(g.onTime(daemonDeadline)) / float64(env.Seconds), "1/s"}
	o.Detail["offered_per_s"] = Metric{float64(len(arrivals)) / float64(env.Seconds), "1/s"}
	o.Detail["probe_ms"] = Metric{probeMS, "ms"}
	o.Detail["job_hit_p50_ms"] = Metric{percentile(hits, 50), "ms"}
	o.Detail["job_hit_p99_ms"] = Metric{percentile(hits, 99), "ms"}
	o.Detail["job_hit_samples"] = Metric{float64(len(hits)), "count"}
	o.Detail["job_miss_p50_ms"] = Metric{percentile(missLat, 50), "ms"}
	o.Detail["job_miss_p75_ms"] = Metric{percentile(missLat, 75), "ms"}
	o.Detail["job_miss_samples"] = Metric{float64(len(missLat)), "count"}
	o.Detail["campaign_p50_ms"] = Metric{percentile(campLat, 50), "ms"}
	o.Detail["campaign_samples"] = Metric{float64(len(campLat)), "count"}
	o.Detail["loadgen_late_p99_ms"] = Metric{percentile(g.late, 99), "ms"}

	if env.Rec != nil {
		spans := env.Rec.Spans()
		us := func(name string, p float64) float64 { return percentile(DurationsOf(spans, name), p) * 1000 }
		o.Layers["http.post_jobs.p50_us"] = Metric{us("http.post_jobs", 50), "us"}
		o.Layers["http.post_jobs.p99_us"] = Metric{us("http.post_jobs", 99), "us"}
		o.Layers["http.get_report.p50_us"] = Metric{us("http.get_report", 50), "us"}
		o.Layers["http.events.p50_ms"] = Metric{percentile(DurationsOf(spans, "http.events"), 50), "ms"}
		o.Layers["http.post_campaigns.p50_ms"] = Metric{percentile(DurationsOf(spans, "http.post_campaigns"), 50), "ms"}
		o.Layers["service.cache_hit_ratio"] = Metric{ratio(float64(met.CacheHits.Load()), float64(met.Submitted.Load())), "ratio"}
		o.Layers["service.executions"] = Metric{float64(executions), "count"}
		o.Layers["service.queue_wait.p50_ms"] = Metric{percentile(r.queueWait, 50), "ms"}
		o.Layers["service.exec.p50_ms"] = Metric{percentile(r.exec, 50), "ms"}
		o.Layers["resultstore.open_ms"] = Metric{median(opens), "ms"}
		o.Layers["resultstore.hit_ratio"] = Metric{ratio(float64(storeStats.Hits), float64(storeStats.Hits+storeStats.Misses)), "ratio"}
		run, dedup := met.CampaignPointsRun.Load(), met.CampaignPointsDeduped.Load()
		o.Layers["campaign.points_deduped_ratio"] = Metric{ratio(float64(dedup), float64(run+dedup)), "ratio"}
		o.Layers["loadgen.late.p99_ms"] = Metric{percentile(g.late, 99), "ms"}
		gcLayers(before, after, len(g.timings), &o)
	}
	return o, nil
}

func countClass(arrivals []arrival, class string) int {
	n := 0
	for _, a := range arrivals {
		if a.Class == class {
			n++
		}
	}
	return n
}

// opCtx carries one operation's trace identity into its requests.
type opCtx struct{ op, span int }

// do sends one request and returns the status and body; any status
// other than want is an error (refusals such as 429 and 503 included).
func (r *daemonRun) do(c *http.Client, t *opCtx, method, path string, body any, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, r.d.base+path, rd)
	if err != nil {
		return nil, err
	}
	if r.env.Rec != nil {
		req.Header.Set(opHeader, strconv.Itoa(t.op))
		req.Header.Set(spanHeader, strconv.Itoa(t.span))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// jobView is the part of the API's job view the benchmark reads.
type jobView struct {
	ID     string        `json:"id"`
	State  service.State `json:"state"`
	Digest string        `json:"digest"`
}

// submit posts a job spec and decodes the view.
func (r *daemonRun) submit(c *http.Client, t *opCtx, spec service.JobSpec) (jobView, error) {
	b, err := r.do(c, t, http.MethodPost, "/v1/jobs", spec, http.StatusAccepted)
	if err != nil {
		return jobView{}, err
	}
	var v jobView
	if err := json.Unmarshal(b, &v); err != nil {
		return v, fmt.Errorf("decode job view: %w", err)
	}
	return v, nil
}

// hit resubmits a stored spec, which must come back done, and fetches
// the report, which must equal the fresh run's (and, for experiments,
// the golden digest).
func (r *daemonRun) hit(c *http.Client, t *opCtx, spec service.JobSpec) error {
	v, err := r.submit(c, t, spec)
	if err != nil {
		return err
	}
	if v.State != service.StateDone {
		return fmt.Errorf("hit %s came back %s, not done", spec.Describe(), v.State)
	}
	body, err := r.do(c, t, http.MethodGet, "/v1/jobs/"+v.ID+"/report", nil, http.StatusOK)
	if err != nil {
		return err
	}
	want := r.pool.reports[v.Digest]
	if !bytes.Equal(body, want) {
		return fmt.Errorf("hit %s served %d bytes differing from its fresh run's %d", spec.Describe(), len(body), len(want))
	}
	if g, ok := r.pool.golden[spec.Experiment]; ok && sha(body) != g {
		return fmt.Errorf("experiment %s served sha256 %s, golden %s", spec.Experiment, sha(body), g)
	}
	r.mu.Lock()
	r.done = append(r.done, doneJob{id: v.ID, report: want})
	r.mu.Unlock()
	return nil
}

// miss submits a fresh spec on lane A, waits for it on lane B over
// the job's event stream, and fetches the report on lane A.
func (r *daemonRun) miss(t *opCtx, k int, done func(error)) {
	spec := freshSpec(r.env.Seed, k)
	r.laneA.tasks <- func(c *http.Client) {
		v, err := r.submit(c, t, spec)
		if err != nil {
			done(err)
			return
		}
		posted := time.Now()
		r.laneB.tasks <- func(c *http.Client) {
			marks, err := r.watch(c, t, "/v1/jobs/"+v.ID+"/events")
			if err != nil {
				done(err)
				return
			}
			if run, ok := marks["running"]; ok {
				r.mu.Lock()
				r.queueWait = append(r.queueWait, ms(max(run.Sub(posted), 0)))
				r.exec = append(r.exec, ms(marks["done"].Sub(run)))
				r.mu.Unlock()
			}
			r.laneA.tasks <- func(c *http.Client) {
				body, err := r.do(c, t, http.MethodGet, "/v1/jobs/"+v.ID+"/report", nil, http.StatusOK)
				if err == nil && !json.Valid(body) {
					err = fmt.Errorf("fresh %s served a report that is not JSON", spec.Describe())
				}
				if err == nil {
					r.mu.Lock()
					r.lastFresh = &freshJob{spec: spec, report: body}
					r.done = append(r.done, doneJob{id: v.ID, report: body})
					r.mu.Unlock()
				}
				done(err)
			}
		}
	}
}

// watch follows an event stream until its terminal event and returns
// when each event type first arrived. Only "done" ends it well.
func (r *daemonRun) watch(c *http.Client, t *opCtx, path string) (map[string]time.Time, error) {
	req, err := http.NewRequest(http.MethodGet, r.d.base+path, nil)
	if err != nil {
		return nil, err
	}
	if r.env.Rec != nil {
		req.Header.Set(opHeader, strconv.Itoa(t.op))
		req.Header.Set(spanHeader, strconv.Itoa(t.span))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	marks := map[string]time.Time{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		if _, seen := marks[name]; !seen {
			marks[name] = time.Now()
		}
		switch name {
		case "done":
			// Drain the rest so the connection can be reused.
			io.Copy(io.Discard, resp.Body)
			return marks, nil
		case "failed", "canceled":
			return nil, fmt.Errorf("%s ended %s", path, name)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New(path + " ended without a terminal event")
}

// rehit resubmits the spec of the fresh job whose report arrived last,
// which must be served from memory with the bytes the fresh run served.
// Before any fresh job has finished it is a plain hit.
func (r *daemonRun) rehit(c *http.Client, t *opCtx, k int) error {
	r.mu.Lock()
	f := r.lastFresh
	r.mu.Unlock()
	if f == nil {
		return r.hit(c, t, r.pool.specs[k%len(r.pool.specs)])
	}
	v, err := r.submit(c, t, f.spec)
	if err != nil {
		return err
	}
	if v.State != service.StateDone {
		return fmt.Errorf("resubmit of %s came back %s, not done", f.spec.Describe(), v.State)
	}
	body, err := r.do(c, t, http.MethodGet, "/v1/jobs/"+v.ID+"/report", nil, http.StatusOK)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, f.report) {
		return fmt.Errorf("cached %s served bytes differing from its fresh run's", f.spec.Describe())
	}
	return nil
}

// report fetches the report of a finished job picked by k.
func (r *daemonRun) report(c *http.Client, t *opCtx, k int) error {
	r.mu.Lock()
	if len(r.done) == 0 {
		r.mu.Unlock()
		return r.hit(c, t, r.pool.specs[k%len(r.pool.specs)])
	}
	j := r.done[(k*7919)%len(r.done)]
	r.mu.Unlock()
	body, err := r.do(c, t, http.MethodGet, "/v1/jobs/"+j.id+"/report", nil, http.StatusOK)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, j.report) {
		return fmt.Errorf("job %s report changed between fetches", j.id)
	}
	return nil
}

// list fetches the next page of the job listing, wrapping to the first
// page after the last.
func (r *daemonRun) list(c *http.Client, t *opCtx) error {
	r.mu.Lock()
	after := r.cursor
	r.mu.Unlock()
	b, err := r.do(c, t, http.MethodGet, "/v1/jobs?limit=50&after="+after, nil, http.StatusOK)
	if err != nil {
		return err
	}
	var page struct {
		Jobs []jobView `json:"jobs"`
		Next string    `json:"next"`
	}
	if err := json.Unmarshal(b, &page); err != nil {
		return fmt.Errorf("decode job page: %v", err)
	}
	if len(page.Jobs) > 50 {
		return fmt.Errorf("job page of %d exceeds its limit of 50", len(page.Jobs))
	}
	for i := 1; i < len(page.Jobs); i++ {
		if page.Jobs[i].ID <= page.Jobs[i-1].ID {
			return fmt.Errorf("job page out of order: %s after %s", page.Jobs[i].ID, page.Jobs[i-1].ID)
		}
	}
	r.mu.Lock()
	r.cursor = page.Next
	r.mu.Unlock()
	return nil
}

// campaign posts a campaign under a new name over stored points, waits
// for it over its event stream, and checks the report against the
// reference run of the same shape.
func (r *daemonRun) campaign(c *http.Client, t *opCtx, k int) error {
	shapes := campaignShapes(r.env.Seed)
	ref := r.pool.campaign[shapes[k%len(shapes)].Name]
	spec := ref.spec
	spec.Name = fmt.Sprintf("bench-%d-%d", r.env.Seed, k)
	b, err := r.do(c, t, http.MethodPost, "/v1/campaigns", spec, http.StatusAccepted)
	if err != nil {
		return err
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("decode campaign view: %v", err)
	}
	if _, err := r.watch(c, t, "/v1/campaigns/"+v.ID+"/events"); err != nil {
		return err
	}
	body, err := r.do(c, t, http.MethodGet, "/v1/campaigns/"+v.ID+"/report", nil, http.StatusOK)
	if err != nil {
		return err
	}
	head, tail, _ := bytes.Cut(body, []byte("\n"))
	if want := fmt.Sprintf("campaign %s (%s)", spec.Name, v.ID); string(head) != want {
		return fmt.Errorf("campaign report opens %q, want %q", head, want)
	}
	if !bytes.Equal(tail, ref.tail) {
		return fmt.Errorf("campaign %s report differs from its shape's reference", spec.Name)
	}
	return nil
}
