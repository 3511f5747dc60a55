package blobstore

import (
	"context"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobstore/s3stub"
)

// stubS3 resolves an S3 store against a stub with test-friendly backoff.
func stubS3(t *testing.T, stub *s3stub.Server, bucket, prefix string) *S3 {
	t.Helper()
	st, err := newS3(stub.URL(bucket, prefix))
	if err != nil {
		t.Fatal(err)
	}
	st.backoff = time.Millisecond
	return st
}

func TestS3RetryOn500(t *testing.T) {
	stub := s3stub.New()
	defer stub.Close()
	st := stubS3(t, stub, "bkt", "")
	ctx := context.Background()

	if err := st.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := stub.Requests()

	// Two failures, then success: the client must retry through them.
	stub.FailNext(2, http.StatusInternalServerError)
	got, err := st.Get(ctx, "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get through 500s: %q, %v", got, err)
	}
	if n := stub.Requests() - before; n != 3 {
		t.Errorf("request count: %d, want 3 (2 failures + success)", n)
	}

	// More failures than attempts: gives up with the last error.
	stub.FailNext(10, http.StatusServiceUnavailable)
	_, err = st.Get(ctx, "k")
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("exhausted retries: %v", err)
	}
	stub.FailNext(0, 0)
}

func TestS3NoRetryOn404(t *testing.T) {
	stub := s3stub.New()
	defer stub.Close()
	st := stubS3(t, stub, "bkt", "")

	before := stub.Requests()
	_, err := st.Get(context.Background(), "absent")
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Get absent: %v, want fs.ErrNotExist", err)
	}
	if n := stub.Requests() - before; n != 1 {
		t.Errorf("404 retried: %d requests, want 1", n)
	}
}

func TestS3ContextCancelDuringBackoff(t *testing.T) {
	stub := s3stub.New()
	defer stub.Close()
	st := stubS3(t, stub, "bkt", "")
	st.backoff = 10 * time.Second // force a long sleep after the first failure

	stub.FailNext(10, http.StatusInternalServerError)
	defer stub.FailNext(0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := st.Get(ctx, "k")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the first attempt fail and enter backoff
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Get: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get did not return after cancel — backoff ignored the context")
	}
}

func TestS3ListPagination(t *testing.T) {
	stub := s3stub.New()
	defer stub.Close()
	stub.PageSize = 3
	st := stubS3(t, stub, "bkt", "arch")
	ctx := context.Background()

	want := []string{"a.gz", "b.gz", "c.gz", "d.gz", "e.gz", "f.gz", "g.gz"}
	for _, k := range want {
		if err := st.Put(ctx, k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := st.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(want) {
		t.Fatalf("List over pages: got %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("List[%d] = %q, want %q", i, keys[i], want[i])
		}
	}
}

// listServer answers every ListObjectsV2 request with the body body holds,
// and counts the requests; other requests get 404.
func listServer(t testing.TB, body *atomic.Value) (*httptest.Server, *atomic.Int64) {
	var pages atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("list-type") != "2" {
			http.NotFound(w, r)
			return
		}
		pages.Add(1)
		w.Write(body.Load().([]byte))
	}))
	t.Cleanup(srv.Close)
	return srv, &pages
}

// TestS3ListRefusesHostileListing: a server that keeps answering
// IsTruncated with the same continuation token, or lists a key outside the
// store's prefix, gets a refusal naming the store — not a List that never
// returns, nor a key the store would hand on as its own.
func TestS3ListRefusesHostileListing(t *testing.T) {
	cases := map[string]struct {
		body, want string
	}{
		"repeated token": {
			`<ListBucketResult><IsTruncated>true</IsTruncated><NextContinuationToken>again</NextContinuationToken>` +
				`<Contents><Key>arch/a.gz</Key></Contents></ListBucketResult>`,
			`repeated continuation token "again"`,
		},
		"key outside the prefix": {
			`<ListBucketResult><Contents><Key>arch/a.gz</Key></Contents><Contents><Key>other/b.gz</Key></Contents></ListBucketResult>`,
			`key "other/b.gz"`,
		},
		"key escaping the namespace": {
			`<ListBucketResult><Contents><Key>arch/../b.gz</Key></Contents></ListBucketResult>`,
			`key "arch/../b.gz"`,
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var body atomic.Value
			body.Store([]byte(tc.body))
			srv, _ := listServer(t, &body)
			st, err := newS3("s3://bkt/arch?endpoint=" + url.QueryEscape(srv.URL))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			keys, err := st.List(ctx, "")
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), st.URL()) {
				t.Fatalf("List = %q, %v; want a refusal naming %s and %s", keys, err, tc.want, st.URL())
			}
		})
	}
}

// FuzzS3List: whatever ListObjectsV2 body a server sends on every page,
// List never panics, terminates, and returns only keys the store can
// address.
func FuzzS3List(f *testing.F) {
	f.Add([]byte(`<ListBucketResult><Contents><Key>arch/a.gz</Key><Size>3</Size></Contents></ListBucketResult>`))
	f.Add([]byte(`<ListBucketResult><IsTruncated>true</IsTruncated><NextContinuationToken>t</NextContinuationToken>` +
		`<Contents><Key>arch/a.gz</Key></Contents></ListBucketResult>`))
	f.Add([]byte(`<ListBucketResult><Contents><Key>elsewhere</Key></Contents></ListBucketResult>`))
	f.Add([]byte(`<ListBucketResult><Contents><Key>arch/</Key></Contents></ListBucketResult>`))
	var body atomic.Value
	body.Store([]byte(nil))
	srv, pages := listServer(f, &body)
	st, err := newS3("s3://bkt/arch?endpoint=" + url.QueryEscape(srv.URL))
	if err != nil {
		f.Fatal(err)
	}
	st.attempts = 1
	f.Fuzz(func(t *testing.T, raw []byte) {
		body.Store(raw)
		pages.Store(0)
		keys, err := st.List(context.Background(), "")
		if n := pages.Load(); n > 2 {
			t.Fatalf("List over one repeated page made %d requests", n)
		}
		if err != nil {
			return
		}
		for _, k := range keys {
			if verr := validKey(k); verr != nil {
				t.Fatalf("List over %q returned %q: %v", raw, k, verr)
			}
		}
	})
}

// TestS3Signing: with env creds, requests carry a well-formed SigV4
// Authorization header whose signature matches a pinned golden value for a
// fixed request (guards against silent drift in the canonicalization).
func TestS3Signing(t *testing.T) {
	var auth, amzDate, contentSHA atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		auth.Store(r.Header.Get("Authorization"))
		amzDate.Store(r.Header.Get("X-Amz-Date"))
		contentSHA.Store(r.Header.Get("X-Amz-Content-Sha256"))
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	t.Setenv("AWS_ACCESS_KEY_ID", "AKIDEXAMPLE")
	t.Setenv("AWS_SECRET_ACCESS_KEY", "wJalrXUtnFEMI/K7MDENG+bPxRfiCYEXAMPLEKEY")
	t.Setenv("AWS_SESSION_TOKEN", "")
	st, err := newS3("s3://bkt/pre?endpoint=" + url.QueryEscape(srv.URL) + "&region=us-east-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(context.Background(), "obj.gz", []byte("payload")); err != nil {
		t.Fatal(err)
	}

	a, _ := auth.Load().(string)
	if !strings.HasPrefix(a, "AWS4-HMAC-SHA256 Credential=AKIDEXAMPLE/") {
		t.Fatalf("Authorization: %q", a)
	}
	if !strings.Contains(a, "/us-east-1/s3/aws4_request") {
		t.Errorf("scope missing region/service: %q", a)
	}
	if !strings.Contains(a, "SignedHeaders=host;x-amz-content-sha256;x-amz-date") {
		t.Errorf("signed headers: %q", a)
	}
	if got, _ := contentSHA.Load().(string); got != sha256Of([]byte("payload")) {
		t.Errorf("content sha: %q", got)
	}
	if got, _ := amzDate.Load().(string); len(got) != 16 || got[8] != 'T' {
		t.Errorf("x-amz-date: %q", got)
	}
}

// TestSigV4Golden pins the signature for a fully fixed request so any
// change to canonicalization is a visible diff, not a silent behavior
// change against real services.
func TestSigV4Golden(t *testing.T) {
	req, err := http.NewRequest(http.MethodPut, "http://localhost:9000/bkt/pre/seg%20one.gz?x=a&b=2", strings.NewReader("data"))
	if err != nil {
		t.Fatal(err)
	}
	when := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	signV4(req, sha256Of([]byte("data")), "AKIDEXAMPLE", "secretkey", "", "us-east-1", when)

	if got := req.Header.Get("X-Amz-Date"); got != "20260102T030405Z" {
		t.Errorf("X-Amz-Date: %q", got)
	}
	const want = "AWS4-HMAC-SHA256 Credential=AKIDEXAMPLE/20260102/us-east-1/s3/aws4_request" +
		", SignedHeaders=host;x-amz-content-sha256;x-amz-date" +
		", Signature=98feaf23916fe286cf3b5e7113e12f810879defe5afc421821f27e5c55d76f27"
	if got := req.Header.Get("Authorization"); got != want {
		t.Errorf("Authorization drifted:\n got %s\nwant %s", got, want)
	}
}

func TestAWSEscape(t *testing.T) {
	cases := []struct {
		in     string
		isPath bool
		want   string
	}{
		{"simple-key_1.gz~", true, "simple-key_1.gz~"},
		{"a/b c", true, "a/b%20c"},
		{"a/b c", false, "a%2Fb%20c"},
		{"pct%25", false, "pct%2525"},
	}
	for _, c := range cases {
		if got := awsEscape(c.in, c.isPath); got != c.want {
			t.Errorf("awsEscape(%q, %v) = %q, want %q", c.in, c.isPath, got, c.want)
		}
	}
}
