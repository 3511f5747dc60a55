package blobstore

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/retry"
)

// S3 talks to an S3-compatible service over plain net/http — no SDK, so
// the repo's only dependency stays the standard library. It covers
// exactly the Store contract: PutObject, GetObject (whole and ranged),
// HeadObject, DeleteObject and ListObjectsV2 (paginated). Requests are
// SigV4-signed when credentials are present in the environment
// (AWS_ACCESS_KEY_ID / AWS_SECRET_ACCESS_KEY / AWS_SESSION_TOKEN) and
// sent unsigned otherwise, which is what local stubs and anonymous
// buckets want.
//
// Transient failures — transport errors, 429 and 5xx responses — retry
// with exponential backoff and full jitter, honoring context
// cancellation between attempts. Permanent failures (403, 404, …) fail
// immediately; a 404 maps to fs.ErrNotExist like every other backend.
//
// URLs: s3://BUCKET[/PREFIX]?endpoint=http://HOST:PORT&region=REGION.
// With an explicit endpoint (a MinIO or test stub), requests are
// path-style (endpoint/bucket/key); without one, the store targets
// https://BUCKET.s3.REGION.amazonaws.com virtual-host style.
type S3 struct {
	rawURL   string
	endpoint string // "" = AWS virtual-host style
	bucket   string
	prefix   string // "" or slash-terminated
	region   string

	access, secret, session string

	client   *http.Client
	attempts int
	backoff  time.Duration
}

// s3Defaults are overridable in tests via struct fields.
const (
	s3DefaultAttempts = 4
	s3DefaultBackoff  = 50 * time.Millisecond
)

// newS3 builds a store from a parsed s3:// URL.
func newS3(raw string) (*S3, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("blobstore: parsing %s: %v", raw, err)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("blobstore: %s names no bucket (want s3://bucket[/prefix])", raw)
	}
	q := u.Query()
	region := q.Get("region")
	if region == "" {
		region = os.Getenv("AWS_REGION")
	}
	if region == "" {
		region = "us-east-1"
	}
	prefix := strings.Trim(u.Path, "/")
	if prefix != "" {
		prefix += "/"
	}
	s := &S3{
		rawURL:   raw,
		endpoint: strings.TrimSuffix(q.Get("endpoint"), "/"),
		bucket:   u.Host,
		prefix:   prefix,
		region:   region,
		access:   os.Getenv("AWS_ACCESS_KEY_ID"),
		secret:   os.Getenv("AWS_SECRET_ACCESS_KEY"),
		session:  os.Getenv("AWS_SESSION_TOKEN"),
		client:   &http.Client{Timeout: 60 * time.Second},
		attempts: s3DefaultAttempts,
		backoff:  s3DefaultBackoff,
	}
	return s, nil
}

// URL returns the store's s3:// location as configured.
func (s *S3) URL() string { return s.rawURL }

// objectURL builds the request URL for key ("" addresses the bucket, for
// listing). The key is percent-encoded segment by segment.
func (s *S3) objectURL(key string, query url.Values) string {
	path := ""
	if key != "" {
		path = awsEscapePath(s.prefix + key)
	}
	var base string
	if s.endpoint != "" {
		base = s.endpoint + "/" + s.bucket
	} else {
		base = "https://" + s.bucket + ".s3." + s.region + ".amazonaws.com"
	}
	u := base + "/" + path
	if len(query) > 0 {
		u += "?" + awsEncodeQuery(query)
	}
	return u
}

// retryable reports whether a response status is worth another attempt.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// do sends one S3 request under the shared retry policy: transport
// errors and retryable statuses (429, 5xx) back off with full jitter and
// try again; everything else returns on the first attempt. The returned
// response's body is fully read into memory and the connection closed;
// resp.Body is replaced by the buffered bytes.
func (s *S3) do(ctx context.Context, method, key string, query url.Values, header http.Header, body []byte) (*http.Response, []byte, error) {
	target := s.objectURL(key, query)
	var (
		resp     *http.Response
		respBody []byte
	)
	policy := retry.Policy{Attempts: s.attempts, Base: s.backoff}
	err := policy.Do(ctx, fmt.Sprintf("s3: %s %s", method, key), func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, method, target, bytes.NewReader(body))
		if err != nil {
			return retry.Permanent(err)
		}
		for k, vs := range header {
			req.Header[k] = vs
		}
		if body != nil {
			req.ContentLength = int64(len(body))
		}
		if s.access != "" {
			signV4(req, sha256Of(body), s.access, s.secret, s.session, s.region, time.Now().UTC())
		}
		r, err := s.client.Do(req)
		if err != nil {
			return err // transport failure: transient
		}
		b, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return err // torn body: transient
		}
		if retryable(r.StatusCode) {
			return fmt.Errorf("%s (%s)", r.Status, firstLine(b))
		}
		resp, respBody = r, b
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return resp, respBody, nil
}

// firstLine abbreviates an error body for messages.
func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	return s
}

// statusErr maps a non-2xx response to an error; 404 satisfies
// errors.Is(err, fs.ErrNotExist).
func (s *S3) statusErr(op, key string, resp *http.Response, body []byte) error {
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("s3: %s %s/%s%s: %w", op, s.bucket, s.prefix, key, fs.ErrNotExist)
	}
	return fmt.Errorf("s3: %s %s/%s%s: %s (%s)", op, s.bucket, s.prefix, key, resp.Status, firstLine(body))
}

func (s *S3) Put(ctx context.Context, key string, data []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	resp, body, err := s.do(ctx, http.MethodPut, key, nil, nil, data)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return s.statusErr("put", key, resp, body)
	}
	return nil
}

func (s *S3) Get(ctx context.Context, key string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	resp, body, err := s.do(ctx, http.MethodGet, key, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, s.statusErr("get", key, resp, body)
	}
	return body, nil
}

func (s *S3) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	if off < 0 {
		return nil, fmt.Errorf("s3: negative offset %d for %s", off, key)
	}
	hdr := http.Header{}
	if n < 0 {
		hdr.Set("Range", fmt.Sprintf("bytes=%d-", off))
	} else {
		hdr.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+n-1))
	}
	resp, body, err := s.do(ctx, http.MethodGet, key, nil, hdr, nil)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusPartialContent:
		if n >= 0 && int64(len(body)) != n {
			return nil, fmt.Errorf("s3: range [%d, %d) of %s returned %d bytes", off, off+n, key, len(body))
		}
		return body, nil
	case http.StatusOK:
		// The service ignored Range; slice locally.
		size := int64(len(body))
		if n < 0 {
			n = size - off
		}
		if off+n > size || n < 0 {
			return nil, fmt.Errorf("s3: range [%d, %d) exceeds %s (%d bytes)", off, off+n, key, size)
		}
		return body[off : off+n], nil
	case http.StatusRequestedRangeNotSatisfiable:
		return nil, fmt.Errorf("s3: range [%d, +%d) exceeds %s", off, n, key)
	default:
		return nil, s.statusErr("getrange", key, resp, body)
	}
}

func (s *S3) Stat(ctx context.Context, key string) (int64, error) {
	if err := validKey(key); err != nil {
		return 0, err
	}
	resp, body, err := s.do(ctx, http.MethodHead, key, nil, nil, nil)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, s.statusErr("stat", key, resp, body)
	}
	return strconv.ParseInt(resp.Header.Get("Content-Length"), 10, 64)
}

func (s *S3) Delete(ctx context.Context, key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	resp, body, err := s.do(ctx, http.MethodDelete, key, nil, nil, nil)
	if err != nil {
		return err
	}
	// S3 DeleteObject is idempotent (204 even for absent keys); tolerate
	// stubs answering 200 or 404.
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNoContent, http.StatusNotFound:
		return nil
	}
	return s.statusErr("delete", key, resp, body)
}

// listResult is the subset of ListObjectsV2's XML the store consumes.
type listResult struct {
	IsTruncated           bool   `xml:"IsTruncated"`
	NextContinuationToken string `xml:"NextContinuationToken"`
	Contents              []struct {
		Key  string `xml:"Key"`
		Size int64  `xml:"Size"`
	} `xml:"Contents"`
}

// List pages through ListObjectsV2. The listing is a server's word, so it
// is checked rather than trusted: a continuation token the server already
// handed out (a paging loop that would never end) and a key outside the
// listed prefix, or one no Get could address, are refused naming the
// store.
func (s *S3) List(ctx context.Context, prefix string) ([]string, error) {
	var keys []string
	token := ""
	seen := make(map[string]bool)
	for {
		q := url.Values{}
		q.Set("list-type", "2")
		q.Set("prefix", s.prefix+prefix)
		if token != "" {
			q.Set("continuation-token", token)
		}
		resp, body, err := s.do(ctx, http.MethodGet, "", q, nil, nil)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, s.statusErr("list", prefix, resp, body)
		}
		var res listResult
		if err := xml.Unmarshal(body, &res); err != nil {
			return nil, fmt.Errorf("s3: decoding list response from %s: %v", s.rawURL, err)
		}
		for _, c := range res.Contents {
			key, ok := strings.CutPrefix(c.Key, s.prefix)
			if !ok || !strings.HasPrefix(key, prefix) || validKey(key) != nil {
				return nil, fmt.Errorf("s3: listing %q at %s returned key %q, which is not a key under that prefix", prefix, s.rawURL, c.Key)
			}
			keys = append(keys, key)
		}
		if !res.IsTruncated || res.NextContinuationToken == "" {
			break
		}
		token = res.NextContinuationToken
		if seen[token] {
			return nil, fmt.Errorf("s3: listing %q at %s: the server repeated continuation token %q", prefix, s.rawURL, token)
		}
		seen[token] = true
	}
	sort.Strings(keys)
	return keys, nil
}
