// Package experiments regenerates every table and figure of the
// paper's evaluation: one driver per artifact, each returning a Report
// whose body prints the same rows or series the paper shows. A Suite
// caches pipeline runs so figures that share runs (Figs. 5 and 7-11)
// don't recompute them, and is safe for concurrent use: RunAll fans
// the drivers out across a worker pool while singleflight caching
// guarantees each shared run still executes exactly once.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/node"
	"repro/internal/xrand"
)

// Report is one regenerated artifact.
type Report struct {
	ID    string `json:"id"` // "table1", "fig4", ... "hypothetical"
	Title string `json:"title"`
	Body  string `json:"body"`
}

// Block returns the report's canonical stdout block — the exact bytes
// the CLI prints per experiment and the service daemon serves as the
// job report. The golden-digest harness fingerprints this block, so
// every consumer of Block is regression-gated together.
func (r Report) Block() string {
	return fmt.Sprintf("== %s ==\n%s\n%s\n", r.ID, r.Title, r.Body)
}

// cell is a singleflight cache slot: the first caller computes the
// value under its own Once while later callers block on the same
// computation and share the result.
type cell[T any] struct {
	once sync.Once
	v    T
}

func (c *cell[T]) get(compute func() T) T {
	c.once.Do(func() { c.v = compute() })
	return c.v
}

// Suite lazily executes and caches the runs the experiments share.
//
// A suite is deterministic in (Seed, Config) and safe for concurrent
// use: drivers may run on any number of goroutines, and every seed a
// driver consumes is derived from Suite.Seed and a stable string key
// (xrand.SeedFor), never from execution order — so reports are
// byte-identical whether the suite runs serially or on eight workers.
// Mutate the exported fields only before the first driver runs.
type Suite struct {
	Seed   uint64
	Config core.AppConfig
	// Fio configures the Table III runs (default: the paper's 4 GiB).
	Fio fio.Config
	// Log, when non-nil, receives one per-experiment wall-time line as
	// each RunAll driver completes. Nil — the default — is quiet mode:
	// embedded suite runs (the service daemon, library callers) emit
	// nothing; the CLI points it at stderr. Report bodies are unaffected
	// either way.
	Log io.Writer

	mu        sync.Mutex
	logMu     sync.Mutex
	runs      map[string]*cell[*core.RunResult]
	fioOut    cell[[]fio.Result]
	stageChar cell[*core.StageCharacterization]
}

// NewSuite creates a suite. Config's zero value selects the default
// app configuration.
func NewSuite(seed uint64, cfg *core.AppConfig) *Suite {
	c := core.DefaultAppConfig()
	if cfg != nil {
		c = *cfg
	}
	return &Suite{Seed: seed, Config: c, Fio: fio.DefaultConfig(), runs: map[string]*cell[*core.RunResult]{}}
}

// logf writes one progress line to Suite.Log, if attached. Drivers run
// on several goroutines, so writes are serialized here.
func (s *Suite) logf(format string, args ...any) {
	if s.Log == nil {
		return
	}
	s.logMu.Lock()
	fmt.Fprintf(s.Log, format, args...)
	s.logMu.Unlock()
}

// seedFor derives the stream seed for a named component. Equal
// (Suite.Seed, key) pairs always yield the same seed, regardless of
// which experiments ran before or on how many workers.
func (s *Suite) seedFor(key string) uint64 { return xrand.SeedFor(s.Seed, key) }

// nodeFor builds a fresh paper-platform node whose stochastic streams
// are keyed by name, so repeated experiments never share streams yet
// the whole suite is reproducible from Suite.Seed alone.
func (s *Suite) nodeFor(key string) *node.Node {
	return node.New(node.SandyBridge(), s.seedFor(key))
}

// run returns the cached pipeline run, executing it exactly once on
// first use even when several figures request it concurrently.
func (s *Suite) run(p core.Pipeline, cs core.CaseStudy) *core.RunResult {
	key := fmt.Sprintf("%s/%s", p, cs.Name)
	s.mu.Lock()
	c, ok := s.runs[key]
	if !ok {
		c = &cell[*core.RunResult]{}
		s.runs[key] = c
	}
	s.mu.Unlock()
	return c.get(func() *core.RunResult {
		return core.Run(s.nodeFor("run/"+key), p, cs, s.Config)
	})
}

// comparison returns the post/in-situ pair for case study index i.
func (s *Suite) comparison(i int) core.Comparison {
	cs := core.CaseStudies()[i]
	return core.Compare(s.run(core.PostProcessing, cs), s.run(core.InSitu, cs))
}

// ComparisonFor returns the (cached) post/in-situ comparison for
// case-study index i, executing the runs on first use. The CLI uses it
// to export profiles without re-running pipelines.
func (s *Suite) ComparisonFor(i int) core.Comparison { return s.comparison(i) }

// fioResults returns the cached Table III runs.
func (s *Suite) fioResults() []fio.Result {
	return s.fioOut.get(func() []fio.Result {
		return fio.RunAll(s.nodeFor("fio/table3"), s.Fio)
	})
}

// stages returns the cached Table II / Fig. 6 characterization.
func (s *Suite) stages() *core.StageCharacterization {
	return s.stageChar.get(func() *core.StageCharacterization {
		sc := core.CharacterizeStages(s.nodeFor("stages/characterization"), s.Config, 10)
		return &sc
	})
}

// Experiment pairs an ID with its driver.
type Experiment struct {
	ID          string
	Description string
	Run         func(*Suite) Report
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Hardware specification (Table I)", (*Suite).Table1},
		{"fig4", "Stage time shares per case study (Fig. 4)", (*Suite).Fig4},
		{"fig5", "Power profiles of both pipelines, 3 case studies (Fig. 5)", (*Suite).Fig5},
		{"fig6", "nnread/nnwrite stage power profiles (Fig. 6)", (*Suite).Fig6},
		{"fig7", "Execution time comparison (Fig. 7)", (*Suite).Fig7},
		{"fig8", "Average power comparison (Fig. 8)", (*Suite).Fig8},
		{"fig9", "Peak power comparison (Fig. 9)", (*Suite).Fig9},
		{"fig10", "Energy comparison (Fig. 10)", (*Suite).Fig10},
		{"fig11", "Normalized energy efficiency (Fig. 11)", (*Suite).Fig11},
		{"table2", "nnread/nnwrite power properties (Table II)", (*Suite).Table2},
		{"breakdown", "Energy-savings breakdown, static vs dynamic (Sec. V-C)", (*Suite).BreakdownReport},
		{"table3", "fio sequential/random tests (Table III)", (*Suite).Table3},
		{"hypothetical", "Data-reorganization hypothetical (Sec. V-D)", (*Suite).Hypothetical},
		{"intransit", "Multi-node in-transit pipeline (Future Work)", (*Suite).InTransit},
		{"hybrid", "Hybrid in-situ + in-transit checkpoint offload (ours)", (*Suite).Hybrid},
		{"devices", "Device sweep: HDD/RAID/NVRAM/SSD (Future Work)", (*Suite).Devices},
		{"optimized", "Alternative post-processing optimizations (Conclusion)", (*Suite).Optimized},
		{"sampling", "In-situ data sampling: energy vs quality (refs 21, 25)", (*Suite).Sampling},
		{"pfs", "Post-processing on a parallel filesystem (Future Work)", (*Suite).PFS},
		{"powercap", "RAPL package power capping (Fig. 9 extension)", (*Suite).PowerCap},
		{"compression", "In-situ payload compression (ref 22)", (*Suite).Compression},
		{"cinema", "Image-database in-situ (ref 12)", (*Suite).Cinema},
		{"ablations", "Design-choice ablations (ours)", (*Suite).Ablations},
		{"reliability", "Storage-fault injection: recovery cost per pipeline (ours)", (*Suite).Reliability},
	}
}

// ByID returns the registered experiment, or an error listing valid IDs.
func ByID(id string) (Experiment, error) {
	var ids []string
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (valid: %v)", id, ids)
}

// Timed is a regenerated artifact plus the wall-clock time its driver
// took (including any shared runs it was first to trigger).
type Timed struct {
	Report
	Wall time.Duration
}

// RunAll regenerates every registered experiment, running up to
// workers drivers concurrently (workers < 1 selects one per
// experiment), and returns the reports in registry order. The reports
// are independent of workers: shared runs are deduplicated and every
// seed is derived by key, so the bodies are byte-identical at any
// parallelism. Cancelling ctx stops scheduling new drivers; already
// running drivers finish, and the partial results are returned
// alongside ctx's error.
func (s *Suite) RunAll(ctx context.Context, workers int) ([]Timed, error) {
	reg := Registry()
	if workers < 1 || workers > len(reg) {
		workers = len(reg)
	}
	out := make([]Timed, len(reg))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				start := time.Now()
				r := reg[i].Run(s)
				wall := time.Since(start)
				out[i] = Timed{Report: r, Wall: wall}
				s.logf("%-12s %8.2fs\n", r.ID, wall.Seconds())
			}
		}()
	}
	var err error
dispatch:
	for i := range reg {
		select {
		case idx <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return out, err
}
