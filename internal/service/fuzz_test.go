package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobSpec drives arbitrary POST /v1/jobs bodies through the
// handler's decoder, then Normalized and Digest. Whatever the body,
// nothing panics; an accepted body with a stray "}" appended is
// rejected; a spec that normalizes is a fixed point of Normalized;
// Digest equals DigestNormalized of the normalized form; and the
// normalized spec re-encoded as JSON decodes to the same digest, so a
// client echoing a spec back cannot change its address.
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		`{"experiment":"fig4"}`,
		`{"experiment":"table1"}`,
		`{"kind":"experiment","experiment":"table3","fio_gib":1,"seed":7}`,
		`{"pipeline":"insitu","case":3,"device":"ssd","app":"ocean"}`,
		`{"pipeline":"insitu","case":3,"real_substeps":1}`,
		`{"pipeline":"post","device":"hdd","case":1,"seed":1,"real_substeps":4}`,
		`{"pipeline":"insitu","case":3,"faults":"bitrot=1e-9"}`,
		`{"pipeline":"insitu","case":3,"power_cap_watts":80,"insitu_nosync":true,"compress_insitu":true,"async_checkpoint":true,"cinema_variants":2}`,
		`{"pipeline":"hybrid","app":"heat","device":"nvram","case":2}`,
		`{"experiment":"fig4"}{"experiment":"table1"}`,
		`{"experiment":"fig4"}}`,
		`{"experiment":"fig4"}]`,
		`{"experimnt":"fig4"}`,
		`{"experiment":"fig4","kernel_workers":2}`,
		`{"experiment":"fig4","pipeline":"post"}`,
		`{"pipeline":"post","case":-1}`,
		`{}`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if err := DecodeStrict(bytes.NewReader(body), &spec); err != nil {
			return
		}
		var again JobSpec
		if err := DecodeStrict(bytes.NewReader(append(body[:len(body):len(body)], '}')), &again); err == nil {
			t.Fatalf("%q accepted with a stray '}' appended", body)
		}
		n, err := spec.Normalized()
		if err != nil {
			return
		}
		if again, err := n.Normalized(); err != nil || again != n {
			t.Fatalf("Normalized is not idempotent: %+v -> %+v (%v)", n, again, err)
		}
		digest, err := spec.Digest()
		if err != nil {
			t.Fatalf("%+v: Digest: %v", spec, err)
		}
		if d := n.DigestNormalized(); d != digest {
			t.Fatalf("%+v: DigestNormalized = %q, Digest %q", n, d, digest)
		}
		encoded, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("%+v: encode: %v", n, err)
		}
		var decoded JobSpec
		if err := DecodeStrict(bytes.NewReader(encoded), &decoded); err != nil {
			t.Fatalf("re-decoding %s: %v", encoded, err)
		}
		if d, err := decoded.Digest(); err != nil || d != digest {
			t.Fatalf("%s: re-encoded digest %q (%v), want %q", encoded, d, err, digest)
		}
	})
}
