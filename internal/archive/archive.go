// Package archive makes the producer side of the measurement pipeline
// durable: a Writer tees the raw block stream a crawl delivers into
// segmented, gzip-compressed, length-prefixed segment objects in a blob
// store, and a Reader replays an archived crawl through the exact
// collect.BlockFetcher contract the live clients implement — so every
// re-analysis (different throughput definitions, wash-trade filters, new
// aggregators) runs at storage speed with zero endpoint calls and no rate
// limits.
//
// Storage is a blobstore.Store resolved from a URL — file://PATH (or a
// bare path), mem://NAME, s3://BUCKET/PREFIX, null:// — so the same
// archive rides a local disk, an in-process test store, or an
// S3-compatible service without the format knowing the difference.
// Layout (one store root, or one key prefix, per archived chain):
//
//	manifest.json      index of finalized segments + integrity metadata
//	segment-000001.gz  gzip stream: magic, then length-prefixed records
//	segment-000002.gz  …
//
// Each segment's uncompressed stream starts with the 8-byte magic
// "RBARCH1\n" followed by records of the form
//
//	[8-byte big-endian block number][4-byte big-endian payload length][payload]
//
// The manifest records, per segment, the block count, the [min, max]
// block-number range, the raw payload byte total, the compressed object
// size and the SHA-256 of the compressed bytes. The range doubles as the
// archive's index: a ranged open (OpenOptions.From/To) selects the covering
// segments straight from the manifest and never fetches the rest. OpenWith
// verifies everything it will read before replay begins: a truncated
// object, a flipped bit or a manifest/segment mismatch fails the whole
// replay with an error wrapping ErrCorrupt instead of silently
// short-counting blocks.
//
// Durability: a segment is buffered in memory until complete, published
// with the store's atomic Put (tmp + fsync + rename on a filesystem), and
// only then committed to the manifest, which itself rewrites atomically
// after every rotation. A crash therefore loses at most the open segment;
// everything the manifest references is intact.
//
// The manifest carries a format version (manifestVersion); any other
// version refuses to open with ErrCorrupt.
package archive

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/blobstore"
)

// segmentMagic opens every segment's uncompressed stream.
const segmentMagic = "RBARCH1\n"

// manifestName is the archive's index object.
const manifestName = "manifest.json"

// manifestVersion is the one manifest format written and read.
const manifestVersion = 2

// maxRecordBytes caps a single record's payload so a corrupted length
// prefix fails immediately instead of attempting a multi-gigabyte read.
const maxRecordBytes = 1 << 30

// ErrCorrupt marks integrity failures: checksum mismatches, truncated or
// malformed segments, and manifest/segment disagreements. Callers can
// errors.Is against it to distinguish corruption from absence.
var ErrCorrupt = errors.New("archive: corrupt archive")

// Manifest indexes an archive: which chain it holds and which finalized
// segments make it up, in write order.
type Manifest struct {
	Version  int           `json:"version"`
	Chain    string        `json:"chain"`
	Segments []SegmentInfo `json:"segments"`
}

// SegmentInfo is one finalized segment's integrity metadata.
type SegmentInfo struct {
	File string `json:"file"`
	// Blocks is the record count, duplicates included: a Writer appends
	// whatever it is handed. A Crawl never hands it a block the location
	// already holds; the Reader keeps the first copy of any that were.
	Blocks int64 `json:"blocks"`
	// Min and Max bound the block numbers inside the segment. Together
	// they are the archive's block-range index: a ranged open fetches only
	// segments whose [Min, Max] intersects the requested range.
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// RawBytes totals the uncompressed payload bytes.
	RawBytes int64 `json:"raw_bytes"`
	// CompBytes is the compressed object's size, checked against the
	// fetched length before hashing, so a truncated remote object fails
	// fast with a size, not just a digest.
	CompBytes int64 `json:"comp_bytes,omitempty"`
	// SHA256 is the hex digest of the compressed object bytes.
	SHA256 string `json:"sha256"`
}

// segmentName formats the n-th segment's object key.
func segmentName(n int) string { return fmt.Sprintf("segment-%06d.gz", n) }

// loadManifest reads and validates the store's manifest. A missing
// manifest surfaces the store's fs.ErrNotExist so callers can treat the
// location as a fresh archive.
func loadManifest(ctx context.Context, st blobstore.Store) (Manifest, error) {
	data, err := st.Get(ctx, manifestName)
	if err != nil {
		return Manifest{}, err
	}
	where := blobstore.Join(st.URL(), manifestName)
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("archive: decoding %s: %v: %w", where, err, ErrCorrupt)
	}
	if m.Version != manifestVersion {
		return Manifest{}, fmt.Errorf("archive: %s has unsupported version %d: %w", where, m.Version, ErrCorrupt)
	}
	if m.Chain == "" {
		return Manifest{}, fmt.Errorf("archive: %s names no chain: %w", where, ErrCorrupt)
	}
	for _, s := range m.Segments {
		if err := validSegmentName(s.File); err != nil {
			return Manifest{}, fmt.Errorf("archive: %s references invalid segment name %q: %w", where, s.File, ErrCorrupt)
		}
		if s.Blocks <= 0 || s.Min <= 0 || s.Max < s.Min || s.CompBytes <= 0 {
			return Manifest{}, fmt.Errorf("archive: %s has inconsistent metadata for %s: %w", where, s.File, ErrCorrupt)
		}
	}
	return m, nil
}

// validSegmentName accepts only flat object keys — a manifest must not be
// able to point reads outside its own archive.
func validSegmentName(name string) error {
	if name == "" {
		return errors.New("empty")
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == '\\' {
			return errors.New("not flat")
		}
	}
	if name == "." || name == ".." {
		return errors.New("relative")
	}
	return nil
}

// saveManifest publishes the manifest through the store's atomic Put; a
// crash mid-save never corrupts an existing manifest.
func saveManifest(ctx context.Context, st blobstore.Store, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("archive: encoding manifest: %w", err)
	}
	return st.Put(ctx, manifestName, append(data, '\n'))
}

// sha256Hex returns the hex digest of b.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
