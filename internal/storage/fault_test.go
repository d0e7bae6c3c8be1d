package storage

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/units"
)

// TestFaultLatencySpike checks that an armed injector stretches disk
// service time by its spike and counts it, while the stored bytes stay
// untouched.
func TestFaultLatencySpike(t *testing.T) {
	e, _, _, fs := testFS(t)
	clean := fs.Create("clean")
	data := make([]byte, 256*units.KiB)
	for i := range data {
		data[i] = byte(i)
	}
	if err := clean.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	clean.Fsync()
	fs.DropCaches()
	baseline := e.Now()
	buf := make([]byte, len(data))
	if err := clean.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	cleanRead := e.Now() - baseline

	// Second, identical filesystem with every disk access spiking.
	e2, d2, _, fs2 := testFS(t)
	inj := fault.New(fault.Config{Seed: 7, Latency: 1, Spike: 5})
	d2.SetFaults(inj)
	f2 := fs2.Create("spiky")
	if err := f2.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	f2.Fsync()
	fs2.DropCaches()
	start := e2.Now()
	if err := f2.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	spiky := e2.Now() - start
	if spiky <= cleanRead {
		t.Errorf("spiked read took %v, clean read %v; want slower", spiky, cleanRead)
	}
	st := inj.Stats()
	if st.LatencySpikes == 0 || st.SpikeTime <= 0 {
		t.Errorf("spike stats not recorded: %+v", st)
	}
	if !bytes.Equal(buf, data) {
		t.Error("latency faults must not alter data")
	}
}

// TestFaultReadWriteErrors checks that transient errors surface as
// fault.ErrTransient, that a failed write leaves the file unmodified,
// and that a failed read leaves the destination unfilled.
func TestFaultReadWriteErrors(t *testing.T) {
	_, _, _, fs := testFS(t)
	inj := fault.New(fault.Config{Seed: 3, ReadErr: 1, WriteErr: 1})
	data := []byte("payload under test")

	// Write the file before arming the injector so reads have content.
	f := fs.Create("victim")
	if err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	fs.SetFaults(inj)

	if err := f.WriteAt([]byte("overwrite"), 0); !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("WriteAt error = %v, want ErrTransient", err)
	}
	if err := f.AppendSparse(units.KiB); !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("AppendSparse error = %v, want ErrTransient", err)
	}
	got := make([]byte, len(data))
	if err := f.ReadAt(got, 0); !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("ReadAt error = %v, want ErrTransient", err)
	}
	if !bytes.Equal(got, make([]byte, len(data))) {
		t.Error("failed read must not fill the destination buffer")
	}

	// Disarm and verify the failed write mutated nothing.
	fs.SetFaults(nil)
	if err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("after failed write, contents = %q, want %q", got, data)
	}
	st := inj.Stats()
	if st.ReadErrors == 0 || st.WriteErrors == 0 {
		t.Errorf("error stats not recorded: %+v", st)
	}
}

// TestFaultBitRotDeliveredOnly checks that bit-rot corrupts only the
// delivered buffer: the stored copy stays pristine, so a retry without
// rot returns the original bytes — the property core's read-retry
// recovery depends on.
func TestFaultBitRotDeliveredOnly(t *testing.T) {
	_, _, _, fs := testFS(t)
	data := make([]byte, 8*units.KiB)
	for i := range data {
		data[i] = byte(i * 13)
	}
	f := fs.Create("rotting")
	if err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	fs.SetFaults(fault.New(fault.Config{Seed: 11, BitRot: 1}))
	got := make([]byte, len(data))
	if err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, data) {
		t.Fatal("certain bit-rot delivered clean bytes")
	}

	fs.SetFaults(nil)
	if err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("stored data was corrupted; rot must hit the delivered copy only")
	}
}

// TestFaultDisabledIdentical checks the determinism guarantee: a nil
// injector and no injector produce bit-identical filesystem behavior.
func TestFaultDisabledIdentical(t *testing.T) {
	run := func(install bool) (units.Seconds, []byte) {
		e, _, _, fs := testFS(t)
		if install {
			fs.SetFaults(nil)
		}
		f := fs.Create("same")
		data := make([]byte, 64*units.KiB)
		for i := range data {
			data[i] = byte(i * 3)
		}
		if err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		f.Fsync()
		fs.DropCaches()
		out := make([]byte, len(data))
		if err := f.ReadAt(out, 0); err != nil {
			t.Fatal(err)
		}
		return e.Now(), out
	}
	t1, b1 := run(false)
	t2, b2 := run(true)
	if t1 != t2 || !bytes.Equal(b1, b2) {
		t.Errorf("nil injector changed behavior: %v vs %v", t1, t2)
	}
}
