package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
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

// cursorBefore reports whether cursor c lists before job ID id,
// worked out apart from jobIDLess: the digits after "job-" compare as
// numbers of any length (more significant digits is larger), a string
// with no such digits counts as 0, and equal numbers fall back to
// byte order.
func cursorBefore(c, id string) bool {
	digits := func(s string) string {
		d, ok := strings.CutPrefix(s, "job-")
		if !ok {
			return ""
		}
		n := 0
		for n < len(d) && '0' <= d[n] && d[n] <= '9' {
			n++
		}
		return strings.TrimLeft(d[:n], "0")
	}
	a, b := digits(c), digits(id)
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	if a != b {
		return a < b
	}
	return c < id
}

// FuzzJobsCursor drives GET /v1/jobs with fuzzed after and limit
// strings over 600 jobs whose IDs straddle job-999999. A limit that
// is not a positive integer gives 400. Otherwise the page is the run
// of jobs, in submission order, that follows the cursor, at most
// min(limit, 500) long (100 with no limit), and next names the page's
// last job exactly when more jobs follow.
func FuzzJobsCursor(f *testing.F) {
	m := newStubManager(f, Options{Workers: 2, QueueDepth: 600}, &stubRunner{report: []byte("r")})
	m.mu.Lock()
	m.nextID = 999700
	m.mu.Unlock()
	ids := submitN(f, m, 600)
	h := Handler(m)
	for _, c := range [][2]string{
		{"", ""},
		{"job-999999", "2"},
		{"job-1000000", "1"},
		{"job-999999zzz", "3"},
		{ids[0], "600"},
		{"", "0"},
		{"job-1000300", "many"},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, after, limit string) {
		q := url.Values{"after": {after}, "limit": {limit}}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs?"+q.Encode(), nil))

		want := defaultJobsPageLimit
		if limit != "" {
			n, err := strconv.Atoi(limit)
			if err != nil || n <= 0 {
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("limit %q: status %d, want 400", limit, rec.Code)
				}
				return
			}
			want = min(n, maxJobsPageLimit)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("after %q limit %q: status %d: %s", after, limit, rec.Code, rec.Body)
		}
		var page struct {
			Jobs []struct {
				ID string `json:"id"`
			} `json:"jobs"`
			Next string `json:"next"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(page.Jobs))
		for i, j := range page.Jobs {
			got[i] = j.ID
		}
		start := 0
		for start < len(ids) && !cursorBefore(after, ids[start]) {
			start++
		}
		end := min(start+want, len(ids))
		if !slices.Equal(got, ids[start:end]) {
			t.Fatalf("after %q limit %q: page %v, want ids[%d:%d] = %v", after, limit, got, start, end, ids[start:end])
		}
		wantNext := ""
		if end < len(ids) && end > start {
			wantNext = ids[end-1]
		}
		if page.Next != wantNext {
			t.Fatalf("after %q limit %q: next %q, want %q", after, limit, page.Next, wantNext)
		}
	})
}
