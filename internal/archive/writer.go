package archive

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync"

	"repro/internal/blobstore"
)

// WriterConfig parameterizes an archive writer.
type WriterConfig struct {
	// Dir is the archive location: a blob-store URL (file://, mem://,
	// s3://, null://) or a bare directory path. A location holding an
	// existing manifest is appended to (the chain must match), so a
	// resumed crawl extends its archive instead of clobbering it (see
	// Crawl, which also keeps it from appending a block twice).
	Dir string
	// Store overrides URL resolution with an explicit backend (tests
	// inject Faulty-wrapped stores here). Dir is then only a label.
	Store blobstore.Store
	// Chain names the archived chain ("eos", "tezos", "xrp"); recorded in
	// the manifest and validated on replay.
	Chain string
	// SegmentBlocks rotates the open segment after this many records
	// (default 4096).
	SegmentBlocks int
	// SegmentBytes rotates the open segment after this many raw payload
	// bytes (default 8 MiB). Rotation happens when either bound is hit.
	SegmentBytes int64
}

func (c WriterConfig) withDefaults() WriterConfig {
	if c.SegmentBlocks <= 0 {
		c.SegmentBlocks = 4096
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 8 << 20
	}
	return c
}

// Writer tees a crawl's raw block stream into segment objects. Append is
// the collect.CrawlConfig.Tee shape. A stream calls its tee from one stage
// goroutine, so within a crawl the mutex is uncontended; it stays because
// Append is safe for concurrent use by any other caller. It is the only
// deflate a teed crawl pays: the stream's gzip sizer runs only when no tee
// is set.
// A segment buffers in memory (bounded by SegmentBytes) until complete,
// then publishes through the store's atomic Put and commits to the
// manifest; an interrupt racing a rotation can tear nothing because
// nothing partial is ever visible.
//
// A failed publish poisons the writer: the failing segment is discarded
// (the manifest never lists its blocks, so a rerun of the crawl fetches
// them again) and every later Append and Close
// returns the original failure — the archive never silently drops a
// segment from its middle.
type Writer struct {
	mu     sync.Mutex
	cfg    WriterConfig
	store  blobstore.Store
	man    Manifest
	next   int // next segment file number
	cur    *openSegment
	blocks int64 // records across finalized + open segments this session
	comp   int64 // object bytes of the segments this session committed
	fail   error // sticky: first store failure, poisons the writer
	closed bool
}

// openSegment is the in-progress segment: a gzip stream into a memory
// buffer, published as one object on rotation.
type openSegment struct {
	buf  bytes.Buffer
	gz   *gzip.Writer
	info SegmentInfo
	// hdr is the record length-prefix scratch, reused across Appends so
	// the 12-byte header never escapes to the heap per record.
	hdr [12]byte
}

// segmentLevel is the flate level segments are deflated at. The level is
// nowhere in the format: any gzip reader inflates any level, and segments
// written at gzip.DefaultCompression (all of them, before this constant)
// read as they did. So it is chosen on the write side alone, where the
// deflate on the stream's one tee goroutine was the live crawl's largest
// cost (archive.append 129 of a 183 ms traced `crawl` round). Measured on
// the repository's benchmark dataset (seed 1: 6.2 MB EOS, 1.0 MB Tezos,
// 3.1 MB XRP in archive write order, a stream per 2 MiB segment as the
// writer cuts them, best of 15 passes; MB/s of payload and payload/object
// ratio per chain, then one pass over all three):
//
//	level   eos          tezos       xrp         all
//	 -2     258  1.74    206 1.44    219 1.46    44.0 ms  1.61
//	  1     365 15.15    189 5.52    165 5.04    42.1 ms  8.48
//	  2     305 16.97    149 6.02    181 5.38    45.2 ms  9.22
//	  3     322 17.16    172 6.03    145 5.47    47.7 ms  9.34
//	  4     204 18.27    121 6.36     98 5.65    72.0 ms  9.77
//	  5     204 19.35     89 6.64    107 5.92    72.4 ms 10.27
//	  6     176 21.03     76 6.68     90 6.01    85.1 ms 10.63
//
// 6 is the default. Seed 2 has the same shape (38.5 39.5 41.3 | 62.6 65.0
// 82.3 ms). Levels 1 to 3 are flate's greedy matchers and cost the same
// within the spread between passes; lazy matching starts at 4 and that is
// the step. 2 is denser than 1 on every chain for nothing; 3 buys another
// 0.1 of ratio from inside the same band, a difference this sweep cannot
// price. Huffman-only (-2) is no faster than matching and a fifth as dense.
// One gzip member per record, the other way to take the deflate off the
// serial stage, costs more CPU and compresses worse (default level 91.6 ms
// at 7.37, Tezos 2.49; level 2 63.9 ms at 6.84): a 3 KB block has no
// history to match against.
const segmentLevel = 2

// gzWriterPool recycles gzip compressors across segment rotations; a
// gzip.Writer carries hundreds of kilobytes of deflate state that was
// re-allocated on every segment before this pool existed. Reset keeps the
// level.
var gzWriterPool = sync.Pool{New: func() any {
	gz, err := gzip.NewWriterLevel(io.Discard, segmentLevel)
	if err != nil {
		panic(err) // segmentLevel is not a flate level
	}
	return gz
}}

// getGzipWriter takes a pooled compressor reset onto w.
func getGzipWriter(w io.Writer) *gzip.Writer {
	gz := gzWriterPool.Get().(*gzip.Writer)
	gz.Reset(w)
	return gz
}

// putGzipWriter returns a closed (or abandoned) compressor to the pool.
func putGzipWriter(gz *gzip.Writer) {
	gz.Reset(io.Discard)
	gzWriterPool.Put(gz)
}

// NewWriter opens cfg.Dir for archiving. An existing manifest is loaded
// and extended; on a filesystem store, stray .tmp files from a previous
// crash are swept.
func NewWriter(cfg WriterConfig) (*Writer, error) {
	cfg = cfg.withDefaults()
	if cfg.Chain == "" {
		return nil, errors.New("archive: writer needs a chain name")
	}
	st := cfg.Store
	if st == nil {
		var err error
		if st, err = blobstore.Resolve(cfg.Dir); err != nil {
			return nil, err
		}
	} else if cfg.Dir == "" {
		cfg.Dir = st.URL()
	}
	// A crashed writer on a filesystem may leave unpublished scratch
	// files; they were never referenced by the manifest, so they are
	// garbage. Other backends have no partial-put residue to sweep.
	if sweeper, ok := st.(interface{ Sweep() error }); ok {
		if err := sweeper.Sweep(); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	w := &Writer{cfg: cfg, store: st, next: 1, man: Manifest{Version: manifestVersion, Chain: cfg.Chain}}
	man, err := loadManifest(context.Background(), st)
	switch {
	case err == nil:
		if man.Chain != cfg.Chain {
			return nil, fmt.Errorf("archive: %s already archives chain %q, not %q", st.URL(), man.Chain, cfg.Chain)
		}
		w.man = man
		for _, s := range man.Segments {
			var n int
			if _, serr := fmt.Sscanf(s.File, "segment-%06d.gz", &n); serr == nil && n >= w.next {
				w.next = n + 1
			}
		}
	case errors.Is(err, fs.ErrNotExist):
		// Fresh archive.
	default:
		return nil, err
	}
	return w, nil
}

// Append archives one raw block. It matches collect.CrawlConfig.Tee.
func (w *Writer) Append(num int64, raw []byte) error {
	if num <= 0 {
		return fmt.Errorf("archive: invalid block number %d", num)
	}
	if len(raw) > maxRecordBytes {
		return fmt.Errorf("archive: block %d payload %d bytes exceeds record limit", num, len(raw))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("archive: append to closed writer")
	}
	if w.fail != nil {
		return fmt.Errorf("archive: writer poisoned by earlier failure: %w", w.fail)
	}
	if w.cur == nil {
		w.openSegmentLocked()
	}
	hdr := w.cur.hdr[:]
	binary.BigEndian.PutUint64(hdr[:8], uint64(num))
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(raw)))
	if _, err := w.cur.gz.Write(hdr); err != nil {
		w.poisonLocked(err)
		return fmt.Errorf("archive: writing block %d: %w", num, err)
	}
	if _, err := w.cur.gz.Write(raw); err != nil {
		w.poisonLocked(err)
		return fmt.Errorf("archive: writing block %d: %w", num, err)
	}
	info := &w.cur.info
	info.Blocks++
	info.RawBytes += int64(len(raw))
	if info.Min == 0 || num < info.Min {
		info.Min = num
	}
	if num > info.Max {
		info.Max = num
	}
	w.blocks++
	if info.Blocks >= int64(w.cfg.SegmentBlocks) || info.RawBytes >= w.cfg.SegmentBytes {
		return w.rotateLocked()
	}
	return nil
}

// openSegmentLocked starts the next segment's in-memory stream.
func (w *Writer) openSegmentLocked() {
	seg := &openSegment{info: SegmentInfo{File: segmentName(w.next)}}
	seg.buf.Grow(64 << 10)
	seg.gz = getGzipWriter(&seg.buf)
	seg.gz.Write([]byte(segmentMagic)) // buffer writes cannot fail
	w.cur = seg
	w.next++
}

// poisonLocked discards the open segment and marks the writer failed.
func (w *Writer) poisonLocked(err error) {
	w.fail = err
	if w.cur != nil {
		w.cur.gz.Close()
		putGzipWriter(w.cur.gz)
		w.cur = nil
	}
}

// rotateLocked finalizes the open segment — flush the compressor, hash,
// publish atomically — and commits it to the manifest. Only after the
// manifest rewrite does replay see the segment, so a failure at any point
// leaves the archive exactly as it was before the segment opened (and
// poisons the writer: see Writer).
func (w *Writer) rotateLocked() error {
	seg := w.cur
	w.cur = nil
	err := seg.gz.Close()
	putGzipWriter(seg.gz)
	if err != nil {
		w.fail = err
		return fmt.Errorf("archive: finalizing %s: %w", seg.info.File, err)
	}
	data := seg.buf.Bytes()
	seg.info.SHA256 = sha256Hex(data)
	seg.info.CompBytes = int64(len(data))
	ctx := context.Background()
	if err := w.store.Put(ctx, seg.info.File, data); err != nil {
		w.fail = err
		return fmt.Errorf("archive: publishing %s to %s: %w", seg.info.File, w.store.URL(), err)
	}
	w.man.Segments = append(w.man.Segments, seg.info)
	if err := saveManifest(ctx, w.store, w.man); err != nil {
		// The segment object exists but is unreferenced; a resumed crawl
		// overwrites it under the same name. Poison so nothing after this
		// hole gets archived.
		w.fail = err
		return err
	}
	w.comp += seg.info.CompBytes
	return nil
}

// Close finalizes the open segment (if it holds any records) and writes
// the manifest. A Writer whose crawl archived nothing still manifests the
// empty archive, so a later Open distinguishes "archived zero blocks"
// from "never archived". A poisoned writer returns its original failure
// and touches nothing.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.fail != nil {
		return fmt.Errorf("archive: writer poisoned by earlier failure: %w", w.fail)
	}
	if w.cur != nil {
		if w.cur.info.Blocks > 0 {
			return w.rotateLocked()
		}
		// Empty open segment: just drop the buffer.
		seg := w.cur
		w.cur = nil
		seg.gz.Close()
		putGzipWriter(seg.gz)
	}
	return saveManifest(context.Background(), w.store, w.man)
}

// Blocks reports how many records this writer appended (duplicates
// included), not counting segments inherited from an earlier session.
func (w *Writer) Blocks() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.blocks
}

// CompressedBytes reports the on-disk footprint of what this writer
// archived: the summed object sizes (manifest comp_bytes) of the segments
// it committed, not counting segments inherited from an earlier session or
// a segment a failed publish discarded. The open segment joins the total
// when it is finalized, so read it after Close. This is the gzip size the
// paper's Figure 2 reports for a dataset, and what a teed crawl prints in
// place of collect.CrawlResult.GzipBytes.
func (w *Writer) CompressedBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.comp
}

// Segments reports how many finalized segments the manifest holds.
func (w *Writer) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.man.Segments)
	if w.cur != nil && w.cur.info.Blocks > 0 {
		n++ // the open segment will be finalized by Close
	}
	return n
}

// Chain returns the archived chain name.
func (w *Writer) Chain() string { return w.cfg.Chain }
