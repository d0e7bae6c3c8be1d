package resultstore

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// FuzzRecord feeds fuzzed bytes, seeded from valid records, to the
// record decoder as the file of a digest the store has indexed.
// Whatever the bytes, nothing panics; the decoder either rejects them
// with ErrCorrupt or returns a body whose re-assembled record is
// exactly the input; and Get agrees with it: it serves that body, or
// it reports a miss, removes the file, drops the digest from the index
// and counts one corruption.
func FuzzRecord(f *testing.F) {
	digest := digestOf("fuzz")
	var asm Store // only its assembly scratch is used
	for _, body := range []string{"", "== fig4 ==\nreport body\n"} {
		f.Add(bytes.Clone(asm.assembleLocked(digest, []byte(body))))
	}
	s, err := Open(Options{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	path := s.path(digest)
	f.Fuzz(func(t *testing.T, rec []byte) {
		if err := s.Put(digest, []byte("indexed")); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, rec, 0o644); err != nil {
			t.Fatal(err)
		}
		body, err := readRecord(path, digest)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("rejected with %v, want ErrCorrupt", err)
		}
		if err == nil {
			if again := asm.assembleLocked(digest, body); !bytes.Equal(again, rec) {
				t.Fatalf("accepted %d bytes whose body re-assembles to %d other bytes", len(rec), len(again))
			}
		}
		corruptions := s.Stats().Corruptions
		got, ok := s.Get(digest)
		if err == nil {
			if !ok || !bytes.Equal(got, body) {
				t.Fatalf("Get = %q, %v; want the accepted body", got, ok)
			}
			return
		}
		if ok {
			t.Fatalf("Get served a rejected record (%v)", err)
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Fatalf("rejected record still on disk (stat: %v)", serr)
		}
		if s.Contains(digest) {
			t.Fatal("rejected record still indexed")
		}
		if n := s.Stats().Corruptions; n != corruptions+1 {
			t.Fatalf("corruptions %d → %d, want one more", corruptions, n)
		}
	})
}
