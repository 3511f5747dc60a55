// Package blobstore abstracts the archive's storage into a small blob
// Store contract with several interchangeable backends, so crawl archives
// can outgrow one machine's disk without the archive layer knowing or
// caring where its bytes live.
//
// A Store is a flat namespace of immutable-ish objects addressed by
// slash-separated keys. The contract is deliberately tiny — put with
// atomic publish, whole and ranged gets, list, stat, delete — which is
// exactly what the segment-file archive format needs and what every real
// blob service (S3 and its clones, local filesystems, memory) can honor:
//
//   - Put publishes an object atomically: a concurrent reader observes
//     either the whole object or its absence, never a partial write. The
//     file backend implements this as write-to-temp + fsync + rename (the
//     durability dance the archive Writer used to do inline); object
//     stores give it away for free.
//   - Get/GetRange/Stat report a missing key with an error satisfying
//     errors.Is(err, fs.ErrNotExist), so callers distinguish absence from
//     failure without knowing the backend.
//   - List returns the keys under a prefix in sorted order.
//   - Delete is idempotent: deleting an absent key is not an error.
//
// Backends resolve from URLs (see Resolve): file://PATH (or a bare path),
// mem://NAME[/PREFIX] and s3://BUCKET[/PREFIX]?endpoint=....
// The memory backend counts every operation and byte, which is how tests
// prove fetch-locality properties (e.g. that a range replay touches only
// covering segments); Faulty wraps any backend with injectable per-op
// errors and latency for failure-path tests.
package blobstore

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
)

// Op names one Store operation, as counted by the memory backend and
// targeted by Faulty fault injection.
const (
	OpPut      = "put"
	OpGet      = "get"
	OpGetRange = "getrange"
	OpList     = "list"
	OpStat     = "stat"
	OpDelete   = "delete"
)

// Store is the blob contract the archive rides. Keys are slash-separated
// relative paths ("manifest.json", "eos/segment-000001.gz"); backends map
// them onto their native namespace. Implementations are safe for
// concurrent use.
type Store interface {
	// Put atomically publishes key holding data: no concurrent reader
	// ever observes a partial object. An existing key is replaced.
	Put(ctx context.Context, key string, data []byte) error
	// Get fetches the whole object. A missing key satisfies
	// errors.Is(err, fs.ErrNotExist).
	Get(ctx context.Context, key string) ([]byte, error)
	// GetRange fetches n bytes starting at off (n < 0 means through the
	// end). A range extending past the object is an error.
	GetRange(ctx context.Context, key string, off, n int64) ([]byte, error)
	// List returns the keys under prefix, sorted. A store with nothing
	// under prefix returns an empty slice, not an error — except a file
	// root that does not exist at all, which is fs.ErrNotExist.
	List(ctx context.Context, prefix string) ([]string, error)
	// Stat returns the object's size in bytes. A missing key satisfies
	// errors.Is(err, fs.ErrNotExist).
	Stat(ctx context.Context, key string) (int64, error)
	// Delete removes key; deleting an absent key is not an error.
	Delete(ctx context.Context, key string) error
	// URL names the store for error messages and re-resolution:
	// Resolve(URL()) opens the same store (same in-process namespace for
	// mem://).
	URL() string
}

// validKey rejects keys that would escape a backend's namespace or map
// ambiguously onto it.
func validKey(key string) error {
	if key == "" {
		return fmt.Errorf("blobstore: empty key")
	}
	if strings.HasPrefix(key, "/") || strings.HasSuffix(key, "/") {
		return fmt.Errorf("blobstore: key %q must be a relative slash path", key)
	}
	for _, part := range strings.Split(key, "/") {
		if part == "" || part == "." || part == ".." {
			return fmt.Errorf("blobstore: key %q contains an invalid path element", key)
		}
	}
	return nil
}

// Join appends path elements to a store location: URL-aware for
// scheme://-style locations (elements land in the path, ahead of any
// query), plain filepath.Join for bare paths. It is how callers derive
// per-stage or per-chain sub-archives from one configured base location.
func Join(base string, elems ...string) string {
	scheme, rest, ok := strings.Cut(base, "://")
	if !ok {
		return filepath.Join(append([]string{base}, elems...)...)
	}
	query := ""
	if i := strings.IndexByte(rest, '?'); i >= 0 {
		rest, query = rest[:i], rest[i:]
	}
	rest = strings.TrimSuffix(rest, "/")
	for _, e := range elems {
		if e = strings.Trim(e, "/"); e != "" {
			if rest == "" {
				rest = e
			} else {
				rest += "/" + e
			}
		}
	}
	return scheme + "://" + rest + query
}
