package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/service"
	"repro/internal/units"
)

// testSpec is the canonical sweep the package tests use: 2 pipelines x
// 2 devices at case 1 with a tiny solver so the 4 real runs stay fast.
func testSpec() Spec {
	return Spec{
		Name: "test-sweep",
		Base: service.JobSpec{Case: 1, RealSubsteps: 2, Seed: 1},
		Axes: []Axis{
			{Name: "pipeline", Values: []string{"post", "insitu"}},
			{Name: "device", Values: []string{"hdd", "ssd"}},
		},
	}
}

func newJobManager(t *testing.T, store *resultstore.Store) *service.Manager {
	t.Helper()
	m := service.NewManager(service.Options{Workers: 4, QueueDepth: 64, Store: store})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

func runCampaign(t *testing.T, jobs *service.Manager, spec Spec, pointWorkers int) (*Manager, *Campaign) {
	t.Helper()
	cm := NewManager(jobs, Options{PointWorkers: pointWorkers})
	t.Cleanup(cm.Close)
	c, err := cm.Start(spec)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st := c.Wait(ctx); st != service.StateDone {
		t.Fatalf("campaign state = %s, want done", st)
	}
	return cm, c
}

func TestNormalizedValidation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Spec)
		want string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "needs a name"},
		{"bad objective", func(s *Spec) { s.Objective = "carbon" }, "unknown objective"},
		{"no axes", func(s *Spec) { s.Axes = nil }, "at least one axis"},
		{"dup axis", func(s *Spec) { s.Axes = append(s.Axes, s.Axes[0]) }, "listed twice"},
		{"empty axis", func(s *Spec) { s.Axes[0].Values = nil }, "has no values"},
		{"dup value", func(s *Spec) { s.Axes[0].Values = []string{"post", "post"} }, "repeats value"},
		{"unknown axis", func(s *Spec) { s.Axes[0].Name = "voltage" }, "unknown axis"},
		{"kernel workers axis", func(s *Spec) { s.Axes[0] = Axis{Name: "kernel_workers", Values: []string{"1", "4"}} }, "unknown axis"},
		{"unparsable value", func(s *Spec) { s.Axes = []Axis{{Name: "case", Values: []string{"one"}}} }, "axis case"},
		{"max points range", func(s *Spec) { s.MaxPoints = HardMaxPoints + 1 }, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec()
			tc.mod(&spec)
			_, err := spec.Normalized()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}

	norm, err := testSpec().Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	if norm.Objective != ObjectiveEnergy || norm.MaxPoints != DefaultMaxPoints {
		t.Fatalf("defaults not applied: %+v", norm)
	}
}

func TestExpandOrderAndLabels(t *testing.T) {
	norm, err := testSpec().Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	points, err := Expand(norm)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	wantLabels := []string{
		"pipeline=post device=hdd",
		"pipeline=post device=ssd",
		"pipeline=insitu device=hdd",
		"pipeline=insitu device=ssd",
	}
	if len(points) != len(wantLabels) {
		t.Fatalf("expanded %d points, want %d", len(points), len(wantLabels))
	}
	for i, want := range wantLabels {
		if points[i].Label != want {
			t.Errorf("point %d label = %q, want %q", i, points[i].Label, want)
		}
		if points[i].Index != i {
			t.Errorf("point %d carries index %d", i, points[i].Index)
		}
		if points[i].Spec.Kind != service.KindPipeline {
			t.Errorf("point %d kind = %q", i, points[i].Spec.Kind)
		}
	}
}

func TestExpandRejectsOversizedProduct(t *testing.T) {
	spec := testSpec()
	spec.MaxPoints = 3 // 2x2 product exceeds it
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	if _, err := Expand(norm); err == nil || !strings.Contains(err.Error(), "exceeds max_points") {
		t.Fatalf("err = %v, want max_points rejection", err)
	}
}

func TestDigestSensitivity(t *testing.T) {
	expandAndDigest := func(s Spec) string {
		t.Helper()
		norm, err := s.Normalized()
		if err != nil {
			t.Fatalf("Normalized: %v", err)
		}
		points, err := Expand(norm)
		if err != nil {
			t.Fatalf("Expand: %v", err)
		}
		return Digest(norm, points)
	}
	base := expandAndDigest(testSpec())
	if base != expandAndDigest(testSpec()) {
		t.Fatal("equal specs produced different digests")
	}
	mods := map[string]func(*Spec){
		"name":      func(s *Spec) { s.Name = "other" },
		"objective": func(s *Spec) { s.Objective = ObjectiveTime },
		"axis val":  func(s *Spec) { s.Axes[1].Values = []string{"hdd", "nvram"} },
		"base seed": func(s *Spec) { s.Base.Seed = 7 },
		"power cap": func(s *Spec) { s.Axes = append(s.Axes, Axis{Name: "power_cap_watts", Values: []string{"80"}}) },
	}
	for name, mod := range mods {
		spec := testSpec()
		mod(&spec)
		if expandAndDigest(spec) == base {
			t.Errorf("%s change did not move the campaign digest", name)
		}
	}
}

// TestDigestMatchesFmtReference pins the campaign digest to its
// reference format: the exact v2 preimage, header, axes and point job
// lines spelled out as literal strings rather than re-derived. Any
// drift would silently re-key every persisted campaign.
func TestDigestMatchesFmtReference(t *testing.T) {
	sha := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	pins := []struct {
		spec   Spec
		header string
		jobs   []string // the job line each point's digest hashes
	}{
		{
			testSpec(),
			"campaign v2 name:\"test-sweep\" objective:energy\n" +
				"axis pipeline:[\"post\" \"insitu\"]\n" +
				"axis device:[\"hdd\" \"ssd\"]\n",
			[]string{
				`v2 kind:pipeline exp: pipe:post app:heat dev:hdd case:1 seed:1 real:2 fio:4 faults:"" pcap:0 nosync:false compress:false async:false cinema:0`,
				`v2 kind:pipeline exp: pipe:post app:heat dev:ssd case:1 seed:1 real:2 fio:4 faults:"" pcap:0 nosync:false compress:false async:false cinema:0`,
				`v2 kind:pipeline exp: pipe:insitu app:heat dev:hdd case:1 seed:1 real:2 fio:4 faults:"" pcap:0 nosync:false compress:false async:false cinema:0`,
				`v2 kind:pipeline exp: pipe:insitu app:heat dev:ssd case:1 seed:1 real:2 fio:4 faults:"" pcap:0 nosync:false compress:false async:false cinema:0`,
			},
		},
		{
			func() Spec {
				s := testSpec()
				s.Objective = ObjectiveTime
				s.Base.Faults = "bitrot=0.01"
				s.Axes = append(s.Axes, Axis{Name: "power_cap_watts", Values: []string{"0", "80"}})
				return s
			}(),
			"campaign v2 name:\"test-sweep\" objective:time\n" +
				"axis pipeline:[\"post\" \"insitu\"]\n" +
				"axis device:[\"hdd\" \"ssd\"]\n" +
				"axis power_cap_watts:[\"0\" \"80\"]\n",
			[]string{
				`v2 kind:pipeline exp: pipe:post app:heat dev:hdd case:1 seed:1 real:2 fio:4 faults:"bitrot=0.01" pcap:0 nosync:false compress:false async:false cinema:0`,
				`v2 kind:pipeline exp: pipe:post app:heat dev:hdd case:1 seed:1 real:2 fio:4 faults:"bitrot=0.01" pcap:80 nosync:false compress:false async:false cinema:0`,
				`v2 kind:pipeline exp: pipe:post app:heat dev:ssd case:1 seed:1 real:2 fio:4 faults:"bitrot=0.01" pcap:0 nosync:false compress:false async:false cinema:0`,
				`v2 kind:pipeline exp: pipe:post app:heat dev:ssd case:1 seed:1 real:2 fio:4 faults:"bitrot=0.01" pcap:80 nosync:false compress:false async:false cinema:0`,
				`v2 kind:pipeline exp: pipe:insitu app:heat dev:hdd case:1 seed:1 real:2 fio:4 faults:"bitrot=0.01" pcap:0 nosync:false compress:false async:false cinema:0`,
				`v2 kind:pipeline exp: pipe:insitu app:heat dev:hdd case:1 seed:1 real:2 fio:4 faults:"bitrot=0.01" pcap:80 nosync:false compress:false async:false cinema:0`,
				`v2 kind:pipeline exp: pipe:insitu app:heat dev:ssd case:1 seed:1 real:2 fio:4 faults:"bitrot=0.01" pcap:0 nosync:false compress:false async:false cinema:0`,
				`v2 kind:pipeline exp: pipe:insitu app:heat dev:ssd case:1 seed:1 real:2 fio:4 faults:"bitrot=0.01" pcap:80 nosync:false compress:false async:false cinema:0`,
			},
		},
	}
	for _, pin := range pins {
		norm, err := pin.spec.Normalized()
		if err != nil {
			t.Fatalf("Normalized: %v", err)
		}
		points, err := Expand(norm)
		if err != nil {
			t.Fatalf("Expand: %v", err)
		}
		if len(points) != len(pin.jobs) {
			t.Fatalf("campaign %q: %d points, want %d", norm.Name, len(points), len(pin.jobs))
		}
		preimage := pin.header
		for i, line := range pin.jobs {
			if got, want := points[i].Digest, sha(line+"\n"); got != want {
				t.Errorf("campaign %q point %d: digest %s, want sha256 of %q", norm.Name, i, got, line)
			}
			preimage += fmt.Sprintf("point %d %s\n", i, sha(line+"\n"))
		}
		if got, want := Digest(norm, points), sha(preimage); got != want {
			t.Errorf("campaign %q: digest %s, want sha256 of\n%s", norm.Name, got, preimage)
		}
	}
}

// TestDigestIgnoresUnprintedFields: the campaign address covers what
// the report prints plus the point digests. A base field every point
// overrides, and max_points, are in neither, so changing them keeps
// the ID and the report bytes.
func TestDigestIgnoresUnprintedFields(t *testing.T) {
	jobs := newJobManager(t, nil)
	_, plain := runCampaign(t, jobs, testSpec(), 4)
	spec := testSpec()
	spec.Base.Pipeline = "hybrid" // every point sets pipeline
	spec.Base.Device = "nvram"    // and device
	spec.MaxPoints = 4
	_, varied := runCampaign(t, jobs, spec, 4)
	if plain.ID != varied.ID || plain.Digest != varied.Digest {
		t.Errorf("campaign ID %s (%s) != %s (%s)", varied.ID, varied.Digest, plain.ID, plain.Digest)
	}
	a, _ := plain.Report()
	b, _ := varied.Report()
	if !bytes.Equal(a, b) {
		t.Errorf("reports differ:\n%s\n---\n%s", a, b)
	}
}

// TestReportDeterministicAcrossWorkers is the tentpole's core
// contract: the same campaign produces byte-identical reports whether
// points run one at a time or maximally parallel.
func TestReportDeterministicAcrossWorkers(t *testing.T) {
	_, c1 := runCampaign(t, newJobManager(t, nil), testSpec(), 1)
	_, c8 := runCampaign(t, newJobManager(t, nil), testSpec(), 8)
	r1, _ := c1.Report()
	r8, _ := c8.Report()
	if len(r1) == 0 {
		t.Fatal("empty report")
	}
	if !bytes.Equal(r1, r8) {
		t.Fatalf("reports differ between 1 and 8 point workers:\n--- workers=1\n%s\n--- workers=8\n%s", r1, r8)
	}
	for _, want := range []string{
		"campaign test-sweep", "objective: energy",
		"point results", "axis marginals", "pareto frontier",
		"greenest configuration", "advisor cross-check",
		"pipeline=insitu",
	} {
		if !bytes.Contains(r1, []byte(want)) {
			t.Errorf("report lacks %q:\n%s", want, r1)
		}
	}
	if c1.ID != c8.ID {
		t.Fatalf("campaign IDs differ: %s vs %s", c1.ID, c8.ID)
	}
}

// TestIdempotentStart: resubmitting a spec returns the same campaign,
// not a second sweep.
func TestIdempotentStart(t *testing.T) {
	jobs := newJobManager(t, nil)
	cm, c := runCampaign(t, jobs, testSpec(), 4)
	again, err := cm.Start(testSpec())
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if again != c {
		t.Fatal("resubmit created a new campaign")
	}
	if got := len(cm.List()); got != 1 {
		t.Fatalf("List has %d campaigns, want 1", got)
	}
}

// TestResumeFromStore is the persistence contract end to end at the
// package level: a half-warm store re-runs only the cold points, and
// a finished campaign resubmitted to a fresh process finishes from its
// points' stored reports with zero executions.
func TestResumeFromStore(t *testing.T) {
	dir := t.TempDir()
	openStore := func() *resultstore.Store {
		st, err := resultstore.Open(resultstore.Options{Dir: filepath.Join(dir, "store")})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return st
	}

	// Generation 1 runs two of the four points as plain jobs — the
	// "daemon died mid-campaign" state: some point reports persisted.
	jobs1 := newJobManager(t, openStore())
	norm, _ := testSpec().Normalized()
	points, _ := Expand(norm)
	for _, p := range points[:2] {
		job, err := jobs1.Submit(p.Spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if st := job.Wait(context.Background()); st != service.StateDone {
			t.Fatalf("warmup job state = %s", st)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	jobs1.Shutdown(ctx)
	cancel()

	// Generation 2 runs the full campaign: the two warm points must be
	// store hits, the two cold ones fresh executions.
	jobs2 := newJobManager(t, openStore())
	_, c2 := runCampaign(t, jobs2, testSpec(), 4)
	report2, _ := c2.Report()
	if got := jobs2.Metrics.Executions.Load(); got != 2 {
		t.Fatalf("resumed campaign ran %d executions, want 2", got)
	}
	if got := jobs2.Metrics.CampaignPointsDeduped.Load(); got != 2 {
		t.Fatalf("CampaignPointsDeduped = %d, want 2", got)
	}
	if got := jobs2.Metrics.CampaignPointsRun.Load(); got != 2 {
		t.Fatalf("CampaignPointsRun = %d, want 2", got)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	jobs2.Shutdown(ctx)
	cancel()

	// Generation 3 resubmits the finished campaign: every point is a
	// store hit, so the report is byte-identical with zero executions.
	jobs3 := newJobManager(t, openStore())
	cm3 := NewManager(jobs3, Options{})
	t.Cleanup(cm3.Close)
	c3, err := cm3.Start(testSpec())
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st := c3.Wait(ctx); st != service.StateDone {
		t.Fatalf("resubmitted campaign state = %s, want done", st)
	}
	report3, ok := c3.Report()
	if !ok || !bytes.Equal(report2, report3) {
		t.Fatalf("resubmitted report differs (ok=%v)", ok)
	}
	if got := jobs3.Metrics.Executions.Load(); got != 0 {
		t.Fatalf("resubmitted campaign ran %d executions, want 0", got)
	}
	if got := jobs3.Metrics.CampaignPointsDeduped.Load(); got != 4 {
		t.Fatalf("resubmitted CampaignPointsDeduped = %d, want 4", got)
	}
}

// TestHTTPAPI drives the campaign REST+SSE surface against a live mux.
func TestHTTPAPI(t *testing.T) {
	jobs := newJobManager(t, nil)
	cm := NewManager(jobs, Options{})
	t.Cleanup(cm.Close)
	mux := service.Handler(jobs)
	cm.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	specBody, _ := json.Marshal(testSpec())
	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", bytes.NewReader(specBody))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", resp.StatusCode)
	}
	var view struct {
		ID     string `json:"id"`
		Points int    `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode view: %v", err)
	}
	resp.Body.Close()
	if view.Points != 4 {
		t.Fatalf("view.Points = %d, want 4", view.Points)
	}

	c, err := cm.Get(view.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st := c.Wait(ctx); st != service.StateDone {
		t.Fatalf("campaign state = %s", st)
	}

	// Idempotent resubmit answers 200, same ID.
	resp, err = http.Post(srv.URL+"/v1/campaigns", "application/json", bytes.NewReader(specBody))
	if err != nil {
		t.Fatalf("re-POST: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-POST status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	// Detail view carries per-point states.
	resp, err = http.Get(srv.URL + "/v1/campaigns/" + view.ID)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	var detail struct {
		State       string `json:"state"`
		PointStates []struct {
			Label string `json:"label"`
			State string `json:"state"`
		} `json:"point_states"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatalf("decode detail: %v", err)
	}
	resp.Body.Close()
	if detail.State != "done" || len(detail.PointStates) != 4 {
		t.Fatalf("detail = %+v", detail)
	}

	// Report is plain text with the digest header.
	resp, err = http.Get(srv.URL + "/v1/campaigns/" + view.ID + "/report")
	if err != nil {
		t.Fatalf("GET report: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Campaign-Digest"); len(got) != 64 {
		t.Fatalf("X-Campaign-Digest = %q", got)
	}
	var report bytes.Buffer
	report.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(report.Bytes(), []byte("greenest configuration")) {
		t.Fatalf("report body:\n%s", report.String())
	}

	// SSE replays the finished campaign's events through the terminal
	// one: expanded, 4 points, done.
	resp, err = http.Get(srv.URL + "/v1/campaigns/" + view.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	var sse bytes.Buffer
	sse.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"event: expanded", "event: point", "event: done"} {
		if !strings.Contains(sse.String(), want) {
			t.Fatalf("SSE stream lacks %q:\n%s", want, sse.String())
		}
	}

	// Error paths.
	if resp, _ = http.Get(srv.URL + "/v1/campaigns/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	bad, _ := json.Marshal(Spec{Name: "bad"})
	if resp, _ = http.Post(srv.URL+"/v1/campaigns", "application/json", bytes.NewReader(bad)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	// A valid spec followed by anything but whitespace is rejected.
	for _, trailer := range []string{"}", "]", " {}", " 42"} {
		body := append(append([]byte{}, specBody...), trailer...)
		if resp, _ = http.Post(srv.URL+"/v1/campaigns", "application/json", bytes.NewReader(body)); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec with trailer %q: status = %d, want 400", trailer, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestHTTPConcurrentFirstPosts: of N concurrent first POSTs of one
// spec, exactly one is told it created the campaign (202); the rest
// get 200, and all name the same campaign.
func TestHTTPConcurrentFirstPosts(t *testing.T) {
	jobs := newJobManager(t, nil)
	cm := NewManager(jobs, Options{})
	t.Cleanup(cm.Close)
	mux := service.Handler(jobs)
	cm.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	const posts = 8
	specBody, _ := json.Marshal(testSpec())
	statuses := make([]int, posts)
	ids := make([]string, posts)
	errs := make([]error, posts)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < posts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", bytes.NewReader(specBody))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var view struct {
				ID string `json:"id"`
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&view)
			statuses[i], ids[i] = resp.StatusCode, view.ID
		}(i)
	}
	close(start)
	wg.Wait()

	created := 0
	for i := 0; i < posts; i++ {
		if errs[i] != nil {
			t.Fatalf("POST %d: %v", i, errs[i])
		}
		switch statuses[i] {
		case http.StatusAccepted:
			created++
		case http.StatusOK:
		default:
			t.Fatalf("POST %d: status %d", i, statuses[i])
		}
		if ids[i] != ids[0] {
			t.Errorf("POST %d named campaign %q, POST 0 %q", i, ids[i], ids[0])
		}
	}
	if created != 1 {
		t.Errorf("%d of %d concurrent first POSTs got 202, want exactly 1", created, posts)
	}
	if got := len(cm.List()); got != 1 {
		t.Errorf("%d campaigns registered, want 1", got)
	}
	c, err := cm.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st := c.Wait(ctx); st != service.StateDone {
		t.Fatalf("campaign state = %s, want done", st)
	}
}

// benchSpec expands to 256 points without touching axis caps.
func benchSpec() Spec {
	caps := make([]string, 16)
	for i := range caps {
		caps[i] = fmt.Sprintf("%d", 40+i)
	}
	seeds := make([]string, 8)
	for i := range seeds {
		seeds[i] = fmt.Sprintf("%d", i+1)
	}
	return Spec{
		Name: "bench",
		Base: service.JobSpec{Case: 1, RealSubsteps: 2},
		Axes: []Axis{
			{Name: "pipeline", Values: []string{"post", "insitu"}},
			{Name: "power_cap_watts", Values: caps},
			{Name: "seed", Values: seeds},
		},
	}
}

// syntheticResult fabricates a plausible RunResult whose numbers vary
// deterministically with the point index.
func syntheticResult(i int) *core.RunResult {
	return &core.RunResult{
		Pipeline:     core.Pipeline(i % 2),
		ExecTime:     units.Seconds(300 + 17*((i*31)%29)),
		Energy:       units.Joules(30000 + 911*((i*13)%37)),
		Frames:       50,
		BytesWritten: units.Bytes(i+1) * units.MiB,
		BytesRead:    units.Bytes(i+1) * units.MiB,
	}
}

func BenchmarkCampaignExpand(b *testing.B) {
	norm, err := benchSpec().Normalized()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := Expand(norm)
		if err != nil {
			b.Fatal(err)
		}
		if Digest(norm, points) == "" {
			b.Fatal("empty digest")
		}
	}
}

func BenchmarkCampaignAggregate(b *testing.B) {
	norm, err := benchSpec().Normalized()
	if err != nil {
		b.Fatal(err)
	}
	points, err := Expand(norm)
	if err != nil {
		b.Fatal(err)
	}
	outcomes := make([]pointOutcome, len(points))
	for i := range outcomes {
		// Synthetic but shaped like real results; values vary per point
		// so the Pareto sweep and marginals do real work.
		r := syntheticResult(i)
		outcomes[i] = pointOutcome{State: service.StateDone, Result: r}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(renderReport(norm, Digest(norm, points), points, outcomes)) == 0 {
			b.Fatal("empty report")
		}
	}
}
