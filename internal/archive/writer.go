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
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/blobstore"
)

// WriterConfig parameterizes an archive writer.
type WriterConfig struct {
	// Dir is the archive location: a blob-store URL (file://, mem:// or
	// s3://) or a bare directory path. A location holding an
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
// deflate a teed crawl pays: core.IngestCrawl's gzip sizer runs only when no
// tee is set.
//
// Append copies each record into the open segment's member buffer and
// returns; every memberBytes of records the buffer is cut off and deflated
// as one gzip member on its own goroutine, at most GOMAXPROCS members
// deflating at once. The deflate therefore runs beside the stream instead
// of on its tee stage, and a member's bytes depend only on the records in
// it, so segments are byte-identical whatever the CPU count.
// A segment buffers in memory until complete; the rotation then seals it
// and returns without waiting for its members. The first Append that finds
// the sealed segment's members deflated (one atomic load) publishes it:
// concatenate the members in order, hash, the store's atomic Put, manifest
// commit. A rotation that finds the sealed segment still pending publishes
// it first, waiting for its members, so the Writer holds at most the open
// and the sealed segment (2 × SegmentBytes). An interrupt can tear nothing
// because nothing partial is ever visible; a hard kill loses at most those
// two segments, which a resumed crawl fetches again.
//
// A failed publish poisons the writer: the failing segment is discarded
// (the manifest never lists its blocks, or any after them, so a rerun of
// the crawl fetches them again), the call that published it returns the
// failure (an Append that found it deflated, the next rotation at the
// latest, or Close), and every later Append and Close returns the original
// failure: the archive never silently drops a segment from its middle. No
// member goroutine outlives Close, so a poisoned or closed writer leaves
// none behind.
type Writer struct {
	mu    sync.Mutex
	cfg   WriterConfig
	store blobstore.Store
	man   Manifest
	next  int // next segment file number
	cur   *openSegment
	// sealed is the rotated segment not yet published, its members
	// perhaps still deflating.
	sealed *openSegment
	blocks int64 // records across published, sealed and open segments this session
	comp   int64 // object bytes of the segments this session committed
	fail   error // sticky: first store failure, poisons the writer
	closed bool
	// saved holds while the store's manifest is man: loaded at open, or
	// rewritten by the last publish. Close then has nothing to rewrite.
	saved bool
	// memberBytes is the stream size a member is cut at: the package's
	// memberBytes, which tests lower to put several members in a small
	// segment.
	memberBytes int
	// deflating holds one token per member being deflated: a semaphore
	// of GOMAXPROCS.
	deflating chan struct{}
}

// openSegment is an open or sealed segment: the records of the member
// being filled, and the members already cut, in stream order, each
// deflated into its buffer by its own goroutine.
type openSegment struct {
	info    SegmentInfo
	fill    *[]byte // magic (first member only) and records not yet cut
	members []*bytes.Buffer
	// deflated waits for the members' goroutines; left counts those not
	// yet done, so an Append can poll a sealed segment with one load.
	deflated sync.WaitGroup
	left     atomic.Int32
}

// segmentLevel is the flate level segments are deflated at. The level is
// nowhere in the format: any gzip reader, the archive's own decoder
// included, inflates any level. So it is chosen on the write side alone, where the
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
// history to match against. Members of memberBytes keep almost all of it
// (see there), and each is still deflated at this level.
const segmentLevel = 2

// memberBytes is the stream size at which Append cuts the open segment's
// records into a gzip member of their own, which deflates on its own
// goroutine and inflates on its own reader worker. A member starts with an
// empty 32 KiB window and costs a 28-byte header and trailer, so smaller
// members parallelize finer and compress worse. Measured with the
// repository's benchmark (seed 1, 2 vCPUs, its 2 MiB segments; `replay`
// blocks/s, two 20 s runs a cut taken in turn, and archive.comp_ratio from
// four traced `crawl` runs, as it moves with arrival order):
//
//	member            replay           comp_ratio
//	one per segment   19,371 18,466    9.29 9.32 9.25 9.28
//	128 KiB           20,512 19,437    8.93 8.94 8.91 8.95
//	256 KiB           20,988 21,069    9.14 9.14 9.06 9.16
//	512 KiB           19,664 20,327    9.28 9.18 9.23 9.24
//	1 MiB             18,574 19,384    9.21 9.29 9.31 9.23
//
// At 1 MiB the 1 MB Tezos archive is one member again and `replay` reads
// as one member per segment does. 128 and 256 KiB cost 4 and 2 % of the
// ratio; 512 KiB costs under 1 % and still cuts every chain's archive
// into at least two members.
const memberBytes = 512 << 10

// memberExtra is the FEXTRA field of every member's gzip header: one
// subfield, ID "RB", four data bytes holding the member's total length,
// header through trailer, little-endian (RFC 1952 §2.3.1.1). deflateMember
// writes zeros and stamps the length at memberLenAt once the member is
// closed. Readers that do not know the subfield skip it, so a segment stays
// a standard multi-member gzip file.
var memberExtra = []byte{'R', 'B', 4, 0, 0, 0, 0, 0}

// memberLenAt is where the length lands: after the 10-byte fixed header,
// XLEN, and the subfield's ID and LEN.
const memberLenAt = 16

// gzWriterPool recycles gzip compressors across members; a gzip.Writer
// carries hundreds of kilobytes of deflate state. Reset keeps the level.
var gzWriterPool = sync.Pool{New: func() any {
	gz, err := gzip.NewWriterLevel(io.Discard, segmentLevel)
	if err != nil {
		panic(err) // segmentLevel is not a flate level
	}
	return gz
}}

// fillPool recycles member fill buffers: each is sized to hold one member
// of records.
var fillPool = sync.Pool{New: func() any { return new([]byte) }}

// memberPool recycles members' output buffers.
var memberPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// deflateMember deflates raw at segmentLevel into out as one complete gzip
// member whose header states the member's length.
func deflateMember(out *bytes.Buffer, raw []byte) {
	gz := gzWriterPool.Get().(*gzip.Writer)
	gz.Reset(out)
	gz.Header.Extra = memberExtra
	gz.Write(raw) // buffer writes cannot fail
	gz.Close()
	gz.Reset(io.Discard)
	gzWriterPool.Put(gz)
	b := out.Bytes()
	binary.LittleEndian.PutUint32(b[memberLenAt:], uint32(len(b)))
}

// NewWriter opens cfg.Dir for archiving. An existing manifest is loaded
// and extended (OpenCrawl opens its Reader from it); on a filesystem store,
// stray .tmp files from a previous crash are swept.
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
	w := &Writer{
		cfg: cfg, store: st, next: 1, man: Manifest{Version: manifestVersion, Chain: cfg.Chain},
		memberBytes: memberBytes, deflating: make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
	man, err := loadManifest(context.Background(), st)
	switch {
	case err == nil:
		if man.Chain != cfg.Chain {
			return nil, fmt.Errorf("archive: %s holds chain %q, not %q", st.URL(), man.Chain, cfg.Chain)
		}
		w.man, w.saved = man, true
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
	if w.sealed != nil && w.sealed.left.Load() == 0 {
		if err := w.publishLocked(); err != nil {
			return err
		}
	}
	if w.cur == nil {
		w.cur = &openSegment{info: SegmentInfo{File: segmentName(w.next)}}
		w.next++
	}
	seg := w.cur
	if seg.fill == nil {
		seg.fill = fillPool.Get().(*[]byte)
		if cap(*seg.fill) == 0 {
			*seg.fill = make([]byte, 0, w.memberBytes+w.memberBytes/8)
		}
		if len(seg.members) == 0 {
			*seg.fill = append(*seg.fill, segmentMagic...)
		}
	}
	fill := binary.BigEndian.AppendUint64(*seg.fill, uint64(num))
	fill = binary.BigEndian.AppendUint32(fill, uint32(len(raw)))
	*seg.fill = append(fill, raw...)
	info := &seg.info
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
	if len(*seg.fill) >= w.memberBytes {
		w.cutLocked()
	}
	return nil
}

// cutLocked hands the open segment's fill buffer to a goroutine that
// deflates it as the segment's next member once a deflate token is free.
// Append does not wait for the token: a segment's members hold at most its
// SegmentBytes of records, and its publish waits for all of them.
func (w *Writer) cutLocked() {
	seg := w.cur
	fill := seg.fill
	seg.fill = nil
	out := memberPool.Get().(*bytes.Buffer)
	out.Reset()
	seg.members = append(seg.members, out)
	seg.deflated.Add(1)
	seg.left.Add(1)
	go func() {
		w.deflating <- struct{}{}
		deflateMember(out, *fill)
		<-w.deflating
		*fill = (*fill)[:0]
		fillPool.Put(fill)
		seg.left.Add(-1)
		seg.deflated.Done()
	}()
}

// splitLocked cuts the open segment's fill in two members at its middle
// byte when it holds at least a quarter of memberBytes (128 KiB), so two
// deflate tokens share the last member Close waits for. The cut depends
// on the records alone, never on the CPU count.
func (w *Writer) splitLocked() {
	seg := w.cur
	if seg.fill == nil || len(*seg.fill) < w.memberBytes/4 {
		return
	}
	head := *seg.fill
	mid := len(head) / 2
	tail := fillPool.Get().(*[]byte)
	*tail = append((*tail)[:0], head[mid:]...)
	*seg.fill = head[:mid]
	w.cutLocked()
	seg.fill = tail
}

// rotateLocked seals the open segment: it cuts the last member and keeps
// the segment as the Writer's sealed one, for the first Append that finds
// its members deflated to publish. A sealed segment still pending is
// published first, waiting for its members if it has to. The newly sealed
// segment is kept even then, so Close waits for its members.
func (w *Writer) rotateLocked() error {
	seg := w.cur
	if seg.fill != nil {
		w.cutLocked()
	}
	w.cur = nil
	err := w.publishLocked()
	w.sealed = seg
	return err
}

// publishLocked publishes the sealed segment, if any — wait for its
// members, concatenate them, hash, publish atomically — and commits it to
// the manifest. Only after the manifest rewrite does replay see the
// segment, so a failure at any point leaves the archive exactly as it was
// before the segment opened (and poisons the writer: see Writer).
func (w *Writer) publishLocked() error {
	seg := w.sealed
	if seg == nil {
		return nil
	}
	w.sealed = nil
	seg.deflated.Wait()
	size := 0
	for _, m := range seg.members {
		size += m.Len()
	}
	data := make([]byte, 0, size)
	for _, m := range seg.members {
		data = append(data, m.Bytes()...)
		memberPool.Put(m)
	}
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
	w.saved = true
	w.comp += seg.info.CompBytes
	return nil
}

// Close publishes the sealed segment and then the open one (if it holds
// any records), its last fill split in two members (splitLocked), and
// writes the manifest unless the store already holds it as it stands, so a
// Writer over an existing archive that appended nothing writes nothing. A
// Writer on a fresh location whose crawl archived nothing still manifests
// the empty archive, so a later Open distinguishes "archived zero blocks"
// from "never archived". A poisoned writer returns its original failure
// and touches nothing. Close returns once every member goroutine has.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.fail != nil {
		err = fmt.Errorf("archive: writer poisoned by earlier failure: %w", w.fail)
	} else if w.cur != nil {
		w.splitLocked()
		err = w.rotateLocked()
	}
	if err == nil {
		err = w.publishLocked()
	}
	if err != nil {
		for _, seg := range []*openSegment{w.sealed, w.cur} {
			if seg != nil {
				seg.deflated.Wait()
			}
		}
		return err
	}
	if w.saved {
		return nil
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
// a segment a failed publish discarded. A sealed segment joins the total
// when it is published, the open one when Close publishes it, so read it
// after Close. This is the gzip size the
// paper's Figure 2 reports for a dataset, and what a teed crawl prints in
// place of collect.CrawlResult.GzipBytes.
func (w *Writer) CompressedBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.comp
}

// Segments reports how many segments the manifest holds, counting the
// sealed and the open segment, which Close publishes.
func (w *Writer) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.man.Segments)
	if w.sealed != nil {
		n++
	}
	if w.cur != nil {
		n++
	}
	return n
}
