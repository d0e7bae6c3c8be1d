package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/telemetry"
)

// -update-events regenerates testdata/events.golden instead of checking it:
//
//	go test ./internal/core -run TestEventStreamGolden -update-events
//
// A changed line means a pipeline now emits a different event stream:
// other stages are timed, in another order, or at other virtual times.
var updateEvents = flag.Bool("update-events", false, "rewrite testdata/events.golden from the current code")

// eventDigest hashes every field of every event a run emits, floats by
// their bits, so any change to the stream's content or order shows.
type eventDigest struct {
	h   hash.Hash
	n   int
	ops map[telemetry.RetryOp]bool
}

func (d *eventDigest) Consume(ev telemetry.Event) {
	d.n++
	if ev.Kind == telemetry.KindRetryAttempt {
		d.ops[ev.Op] = true
	}
	var b []byte
	str := func(s string) {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
		b = append(b, s...)
	}
	f64 := func(f float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f)) }
	b = append(b, byte(ev.Kind), byte(ev.Op))
	str(ev.Run)
	str(ev.Stage)
	str(ev.Source)
	str(ev.Unit)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(ev.Attempt)))
	for _, f := range []float64{
		float64(ev.Start), float64(ev.End), float64(ev.At), ev.Value,
		float64(ev.StartEnergy), float64(ev.EndEnergy), float64(ev.Backoff),
	} {
		f64(f)
	}
	d.h.Write(b) //nolint:errcheck // hashes cannot fail
}

// TestEventStreamGolden pins each pipeline's full telemetry stream for
// case 3 with cinema variants, in-situ compression and faults that make
// retries, lost writes and re-simulations happen. The stage structure a
// pipeline program emits (which stages are timed, in what order, with
// what brackets) is visible only through this stream, so the digest is
// its regression guard.
func TestEventStreamGolden(t *testing.T) {
	cs := CaseStudies()[2]
	var got []string
	ops := map[telemetry.RetryOp]bool{}
	for _, p := range Pipelines() {
		cfg := testConfig()
		cfg.CinemaVariants = 2
		cfg.CompressInsitu = true
		cfg.Faults = &fault.Config{Seed: 3, BitRot: .2, ReadErr: .2, WriteErr: .3, Latency: .1}
		d := &eventDigest{h: sha256.New(), ops: ops}
		cfg.Telemetry = d
		RunOnCluster(NewClusterFor(node.SandyBridge(), p, 5), p, cs, cfg)
		got = append(got, fmt.Sprintf("%s %d %x", p.Flag(), d.n, d.h.Sum(nil)))
	}
	for _, op := range []telemetry.RetryOp{telemetry.RetryWrite, telemetry.RetryRead, telemetry.RetryLostWrite, telemetry.RetryResimulate} {
		if !ops[op] {
			t.Errorf("no pipeline emitted a %s event: the fault rates no longer cover that recovery path", op)
		}
	}

	path := filepath.Join("testdata", "events.golden")
	if *updateEvents {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update-events to create it)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, the run produced %d:\n%s", len(want), len(got), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event stream changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
