package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/service"
)

// FuzzCampaignSpec drives arbitrary POST /v1/campaigns bodies through
// the handler's decoder, then Normalized and Expand. Whatever the body,
// nothing panics; a spec that normalizes is a fixed point of
// Normalized; an expansion is the whole cross-product and never
// exceeds max_points, which never exceeds HardMaxPoints; every point's
// digest is its spec's Digest; two points share a digest exactly when
// they share a spec; and the normalized spec re-encoded as JSON keeps
// the campaign digest.
func FuzzCampaignSpec(f *testing.F) {
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "campaigns", "*.json"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("example campaigns: %v (%d found)", err, len(examples))
	}
	for _, path := range examples {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, s := range []Spec{testSpec(), benchSpec()} {
		body, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		if err := service.DecodeStrict(bytes.NewReader(body), &spec); err != nil {
			return
		}
		norm, err := spec.Normalized()
		if err != nil {
			return
		}
		again, err := norm.Normalized()
		if err != nil || !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalized is not idempotent: %+v -> %+v (%v)", norm, again, err)
		}
		points, err := Expand(norm)
		if err != nil {
			return
		}
		product := 1
		for _, ax := range norm.Axes {
			product *= len(ax.Values)
		}
		if len(points) != product || len(points) > norm.MaxPoints || norm.MaxPoints > HardMaxPoints {
			t.Fatalf("%d points of a %d-point product, max_points %d (hard cap %d)",
				len(points), product, norm.MaxPoints, HardMaxPoints)
		}
		bySpec := make(map[service.JobSpec]string, len(points))
		byDigest := make(map[string]service.JobSpec, len(points))
		for _, p := range points {
			if d, err := p.Spec.Digest(); err != nil || d != p.Digest {
				t.Fatalf("point %d (%s): digest %s, Digest() = %s (%v)", p.Index, p.Label, p.Digest, d, err)
			}
			if d, ok := bySpec[p.Spec]; ok && d != p.Digest {
				t.Fatalf("point %d (%s): equal specs, digests %s and %s", p.Index, p.Label, d, p.Digest)
			}
			if s, ok := byDigest[p.Digest]; ok && s != p.Spec {
				t.Fatalf("point %d (%s): digest %s shared by %+v and %+v", p.Index, p.Label, p.Digest, s, p.Spec)
			}
			bySpec[p.Spec], byDigest[p.Digest] = p.Digest, p.Spec
		}

		digest := Digest(norm, points)
		encoded, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("%+v: encode: %v", norm, err)
		}
		var decoded Spec
		if err := service.DecodeStrict(bytes.NewReader(encoded), &decoded); err != nil {
			t.Fatalf("re-decoding %s: %v", encoded, err)
		}
		renorm, err := decoded.Normalized()
		if err != nil {
			t.Fatalf("%s: re-normalizing: %v", encoded, err)
		}
		repoints, err := Expand(renorm)
		if err != nil {
			t.Fatalf("%s: re-expanding: %v", encoded, err)
		}
		if d := Digest(renorm, repoints); d != digest {
			t.Fatalf("%s: re-encoded campaign digest %s, want %s", encoded, d, digest)
		}
	})
}
