package main

import (
	"runtime"
	"time"

	greenviz "repro"
)

// fioFileSize sizes every fio test file. At this size random-write
// range bookkeeping already dominates a suite's host time (it grows
// quadratically with the request count), while a suite stays short
// enough that one measurement holds enough suites for a p90.
const fioFileSize = 256 * greenviz.MiB

// fioKinds is the Table III order.
var fioKinds = []greenviz.FioKind{greenviz.FioSeqRead, greenviz.FioRandRead, greenviz.FioSeqWrite, greenviz.FioRandWrite}

// fioLayer names each kind's per-layer metric.
var fioLayer = map[greenviz.FioKind]string{
	greenviz.FioSeqRead:   "fio.seqread_ms",
	greenviz.FioRandRead:  "fio.randread_ms",
	greenviz.FioSeqWrite:  "fio.seqwrite_ms",
	greenviz.FioRandWrite: "fio.randwrite_ms",
}

// fioTest is one finished fio test.
type fioTest struct {
	result   greenviz.FioResult
	requests uint64 // simulated disk requests, preallocation included
	elapsed  time.Duration
	build    time.Duration // of elapsed, building the node
}

// runFioTest runs one Table III test on a fresh HDD node.
func runFioTest(kind greenviz.FioKind, cfg greenviz.FioConfig, seed uint64, rec *Recorder, op, parent int) fioTest {
	span := rec.Begin(op, parent, fioLayer[kind])
	start := time.Now()
	n := greenviz.NewNode(greenviz.SandyBridge(), seed)
	build := time.Since(start)
	r := greenviz.RunFio(n, kind, cfg)
	t := fioTest{result: r, requests: requests(n.DiskStats()), elapsed: time.Since(start), build: build}
	rec.End(span)
	return t
}

// fioSuite runs the four tests, each on a fresh node seeded alike, so
// every suite of one workload seed repeats exactly in virtual time.
func fioSuite(cfg greenviz.FioConfig, seed uint64, rec *Recorder) []fioTest {
	op := rec.NewOp()
	root := rec.Begin(op, 0, "fio.suite")
	defer rec.End(root)
	out := make([]fioTest, len(fioKinds))
	for i, k := range fioKinds {
		out[i] = runFioTest(k, cfg, seed, rec, op, root)
	}
	return out
}

// runFio is the fio workload: one client regenerates Table III over and
// over until the time is up, finishing the suite in progress.
func runFio(env Env) (Outcome, error) {
	o := Outcome{E2E: map[string]Metric{}, Detail: map[string]Metric{}, Layers: map[string]Metric{}}
	cfg := greenviz.DefaultFioConfig()
	cfg.FileSize = fioFileSize

	// Warm-up, untimed: one suite.
	fioSuite(cfg, env.Seed, nil)

	var suites [][]fioTest
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(time.Duration(env.Seconds) * time.Second)
	pr := newProbe()
	var probes []float64
	for len(suites) == 0 || time.Now().Before(deadline) {
		probes = append(probes, pr.run())
		suites = append(suites, fioSuite(cfg, env.Seed, env.Rec))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	// Every suite must repeat the first exactly: same virtual times,
	// energies and request counts.
	var reqs, virtual float64
	var suiteMS, setups []float64
	perKind := map[greenviz.FioKind][]float64{}
	for _, s := range suites {
		var sm float64
		var build time.Duration
		for i, t := range s {
			o.Attempted++
			if want := suites[0][i]; t.result != want.result || t.requests != want.requests {
				o.fail("suite test %v: %+v with %d requests, want %+v with %d", fioKinds[i], t.result, t.requests, want.result, want.requests)
			}
			if t.result.ExecTime <= 0 || t.requests == 0 {
				o.fail("suite test %v did no work", fioKinds[i])
			}
			reqs += float64(t.requests)
			sm += ms(t.elapsed)
			build += t.build
			perKind[fioKinds[i]] = append(perKind[fioKinds[i]], ms(t.elapsed))
		}
		suiteMS = append(suiteMS, sm)
		setups = append(setups, build.Seconds())
	}
	for _, t := range suites[0] {
		virtual += float64(t.result.ExecTime)
	}

	// The gated figures are at the reference host's speed: each suite's
	// time, and the set-up (building its four nodes, timed in every suite
	// so the samples spread over the run), is normalized by the probes
	// around it.
	factor := hostFactors(probes)
	var normMS, normSetup []float64
	var normSum float64
	for i, f := range factor {
		normMS = append(normMS, suiteMS[i]*f)
		normSetup = append(normSetup, setups[i]*f)
		normSum += suiteMS[i] * f
	}
	warnTail("fio suites", len(suiteMS), 90)
	o.E2E["setup_s"] = Metric{median(normSetup), "s"}
	o.E2E["throughput_per_s"] = Metric{reqs / (normSum / 1000), "1/s"}
	o.E2E["latency_ms"] = Metric{percentile(normMS, 50), "ms"}
	o.E2E["latency_tail_ms"] = Metric{percentile(normMS, 90), "ms"}

	perS := reqs / elapsed.Seconds()
	o.Detail["raw_setup_s"] = Metric{median(setups), "s"}
	o.Detail["fio_kreq_per_s"] = Metric{perS / 1000, "kreq/s"}
	o.Detail["suite_p50_ms"] = Metric{percentile(suiteMS, 50), "ms"}
	o.Detail["suite_p90_ms"] = Metric{percentile(suiteMS, 90), "ms"}
	o.Detail["suites"] = Metric{float64(len(suites)), "count"}
	o.Detail["probe_ms"] = Metric{median(probes), "ms"}

	if env.Rec != nil {
		for _, k := range fioKinds {
			o.Layers[fioLayer[k]] = Metric{mean(perKind[k]), "ms"}
		}
		o.Layers["fio.virtual_s"] = Metric{virtual, "s"}
		o.Layers["storage.disk_requests"] = Metric{reqs / float64(len(suites)), "count"}
		gcLayers(before, after, len(suites), &o)
	}
	return o, nil
}
