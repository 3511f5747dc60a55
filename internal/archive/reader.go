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
	"repro/internal/wire"
)

// recordRef locates one block's payload inside a segment's uncompressed
// stream.
type recordRef struct {
	seg int // index into manifest.Segments
	off int64
	n   int32
}

// OpenOptions parameterizes OpenWith.
type OpenOptions struct {
	// Workers bounds Open's verification fan-out, which is per segment:
	// each worker fetches, hashes, inflates and walks one covering segment
	// at a time (0 or less = one per CPU, never more than there are
	// covering segments). Replay takes its own worker count and is not
	// bound by the segment count.
	Workers int
	// From and To restrict the open to blocks in [From, To]. Both zero
	// means the whole archive. A ranged open verifies, fetches and indexes
	// only the covering segments — the ones whose manifest [min, max]
	// intersects the range — which is the point of the per-segment range
	// index: replaying a slice of a huge remote archive moves only the
	// bytes that slice lives in.
	From, To int64
	// Store overrides URL resolution with an explicit backend (tests
	// inject Faulty-wrapped or counted stores here).
	Store blobstore.Store
}

// Reader replays an archived crawl. It implements the collect.BlockFetcher
// contract (Head + FetchBlock), so collect.Stream and core.IngestCrawl
// drive it exactly like a live endpoint — except every fetch is a blob
// read. OpenWith verifies everything it will read up front; FetchBlock is
// safe for concurrent use (stream workers fetch in parallel).
type Reader struct {
	url      string
	store    blobstore.Store
	man      Manifest
	covering []int // manifest indices this open reads, in manifest order
	index    map[int64]recordRef
	// tasks is Replay's work list: per covering segment, in manifest
	// order, the records index points at — the duplicate-resolved,
	// range-filtered blocks that segment delivers, in write order — cut
	// into replayGrain-record claims.
	tasks []replayTask
	min   int64
	max   int64

	// Segment payloads decompress lazily and stay cached; the crawl's
	// stride-sharded reverse walk revisits each segment many times, so the
	// cache keeps the most recently touched few decompressed.
	mu       sync.Mutex
	cache    map[int][]byte
	order    []int // cache keys, least recently used first
	maxCache int
}

// OpenWith loads the manifest at location (a store URL or bare path) and
// verifies every segment the open covers: compressed size, checksum, magic,
// record walk, and agreement with the manifest's block count, bounds and
// byte totals. Any mismatch fails with an error wrapping ErrCorrupt. A
// location without a manifest fails with fs.ErrNotExist. Segments verify
// concurrently, and the result is identical to a serial open — per-segment
// verdicts merge in manifest order, so duplicate resolution ("first
// occurrence wins") and error selection do not depend on worker
// scheduling. Each verified payload is kept in the reader's segment cache,
// so replay does not decompress recently verified segments a second time.
func OpenWith(location string, opts OpenOptions) (*Reader, error) {
	st := opts.Store
	if st == nil {
		var err error
		if st, err = blobstore.Resolve(location); err != nil {
			return nil, err
		}
	} else if location == "" {
		location = st.URL()
	}
	if opts.From != 0 || opts.To != 0 {
		if opts.From <= 0 || opts.To < opts.From {
			return nil, fmt.Errorf("archive: invalid block range [%d, %d]", opts.From, opts.To)
		}
	}
	man, err := loadManifest(context.Background(), st)
	if err != nil {
		return nil, err
	}
	r := &Reader{
		url:      location,
		store:    st,
		man:      man,
		index:    make(map[int64]recordRef),
		cache:    make(map[int][]byte),
		maxCache: 4,
	}
	// The covering set: every segment for a full open, only the ones whose
	// [Min, Max] intersects [From, To] for a ranged one. Any in-range
	// block necessarily lives in an intersecting segment, so skipping the
	// rest loses nothing.
	for i, seg := range man.Segments {
		if opts.From > 0 && (seg.Max < opts.From || seg.Min > opts.To) {
			continue
		}
		r.covering = append(r.covering, i)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(r.covering) {
		workers = len(r.covering)
	}
	type verdict struct {
		records []segRecord
		payload []byte
		err     error
	}
	verdicts := make([]verdict, len(r.covering))
	next := int64(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(atomic.AddInt64(&next, 1)) - 1
				if k >= len(r.covering) {
					return
				}
				i := r.covering[k]
				records, payload, err := r.verifySegment(man.Segments[i])
				// Only the newest maxCache payloads are kept for the
				// cache below; dropping the rest here keeps Open's peak
				// memory at O(workers + maxCache) segments instead of
				// the whole uncompressed archive.
				if k < len(r.covering)-r.maxCache {
					payload = nil
				}
				verdicts[k] = verdict{records, payload, err}
			}
		}()
	}
	wg.Wait()
	// Merge in manifest order: the first error by segment position wins,
	// and a duplicate block number resolves to its earliest-written record
	// exactly as the old serial walk resolved it.
	maxTasks := 0
	for k := range verdicts {
		if err := verdicts[k].err; err != nil {
			return nil, err
		}
		maxTasks += (len(verdicts[k].records) + replayGrain - 1) / replayGrain
	}
	r.tasks = make([]replayTask, 0, maxTasks)
	for k, v := range verdicts {
		i := r.covering[k]
		// The segment's record list is filtered in place into the records
		// it owns, so the lists cost Open no allocation of their own.
		owned := v.records[:0]
		for _, rec := range v.records {
			if opts.From > 0 && (rec.num < opts.From || rec.num > opts.To) {
				continue
			}
			if _, dup := r.index[rec.num]; !dup {
				r.index[rec.num] = recordRef{seg: i, off: rec.off, n: rec.n}
				owned = append(owned, rec)
			}
			if r.min == 0 || rec.num < r.min {
				r.min = rec.num
			}
			if rec.num > r.max {
				r.max = rec.num
			}
		}
		for lo := 0; lo < len(owned); lo += replayGrain {
			r.tasks = append(r.tasks, replayTask{k: k, records: owned[lo:min(lo+replayGrain, len(owned))]})
		}
	}
	// Seed the payload cache with the newest verified segments: the
	// reverse-chronological crawl replays them first, and re-reading what
	// Open just decompressed was the old path's wasted second pass.
	for k := len(verdicts) - r.maxCache; k < len(verdicts); k++ {
		if k < 0 {
			continue
		}
		r.cache[r.covering[k]] = verdicts[k].payload
		r.order = append(r.order, r.covering[k])
	}
	return r, nil
}

// segRecord is one verified record's location inside its segment.
type segRecord struct {
	num int64
	off int64
	n   int32
}

// verifySegment checks one segment against its manifest entry, returning
// the records it holds (in write order) and the decompressed payload for
// the reader's cache. It touches no shared Reader state, so segments
// verify concurrently. A store failure that is not absence propagates
// as-is — a flaky backend is not corruption.
func (r *Reader) verifySegment(seg SegmentInfo) ([]segRecord, []byte, error) {
	compressed, err := r.store.Get(context.Background(), seg.File)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, fmt.Errorf("archive: manifest references missing segment %s: %w", seg.File, ErrCorrupt)
		}
		return nil, nil, err
	}
	if int64(len(compressed)) != seg.CompBytes {
		return nil, nil, fmt.Errorf("archive: segment %s is %d bytes, manifest says %d (truncated or modified): %w",
			seg.File, len(compressed), seg.CompBytes, ErrCorrupt)
	}
	if got := sha256Hex(compressed); got != seg.SHA256 {
		return nil, nil, fmt.Errorf("archive: segment %s checksum mismatch (manifest %s, object %s — truncated or modified): %w",
			seg.File, short(seg.SHA256), short(got), ErrCorrupt)
	}
	payload, err := decompressSegment(compressed, seg)
	if err != nil {
		return nil, nil, fmt.Errorf("archive: segment %s: %v: %w", seg.File, err, ErrCorrupt)
	}
	// Sized from the manifest's count, which the payload bounds: a record
	// is at least its 12-byte header.
	records := make([]segRecord, 0, min(seg.Blocks, int64(len(payload))/12))
	var (
		rawBytes int64
		min, max int64
	)
	for off := int64(0); off < int64(len(payload)); {
		if int64(len(payload))-off < 12 {
			return nil, nil, fmt.Errorf("archive: segment %s ends mid-record header: %w", seg.File, ErrCorrupt)
		}
		num := int64(binary.BigEndian.Uint64(payload[off : off+8]))
		n := int64(binary.BigEndian.Uint32(payload[off+8 : off+12]))
		off += 12
		if num <= 0 || n > maxRecordBytes || off+n > int64(len(payload)) {
			return nil, nil, fmt.Errorf("archive: segment %s has a malformed record for block %d: %w", seg.File, num, ErrCorrupt)
		}
		records = append(records, segRecord{num: num, off: off, n: int32(n)})
		rawBytes += n
		if min == 0 || num < min {
			min = num
		}
		if num > max {
			max = num
		}
		off += n
	}
	if int64(len(records)) != seg.Blocks || rawBytes != seg.RawBytes || min != seg.Min || max != seg.Max {
		return nil, nil, fmt.Errorf("archive: segment %s disagrees with manifest (blocks %d/%d, bytes %d/%d, range [%d,%d]/[%d,%d]): %w",
			seg.File, len(records), seg.Blocks, rawBytes, seg.RawBytes, min, max, seg.Min, seg.Max, ErrCorrupt)
	}
	return records, payload, nil
}

// gzReaderPool recycles gzip decompressors across segment reads: Open
// verifies every segment and replay re-reads them on cache misses, so one
// crawl inflates the same few hundred kilobytes of inflate state many
// times without the pool.
var gzReaderPool = sync.Pool{New: func() any { return new(gzip.Reader) }}

// maxInflateRatio bounds how far deflate can expand its input (RFC 1951: a
// stored length/distance pair of a few bits copies up to 258 bytes).
const maxInflateRatio = 1032

// decompressSegment gunzips a segment in one pass into a buffer sized from
// its manifest entry, and strips the magic. The manifest states the exact
// uncompressed size — magic, a 12-byte header per record, the payload
// bytes — so the buffer never regrows. The size is capped by what the
// compressed object could possibly inflate to, so a manifest cannot buy a
// large allocation with a small blob; a stream longer than the manifest
// says is refused without inflating the rest (a shorter one is caught by
// the caller's record walk).
func decompressSegment(compressed []byte, seg SegmentInfo) ([]byte, error) {
	size := maxInflateRatio * int64(len(compressed))
	if seg.Blocks >= 0 && seg.RawBytes >= 0 && seg.Blocks <= size/12 && seg.RawBytes <= size {
		size = min(size, int64(len(segmentMagic))+12*seg.Blocks+seg.RawBytes)
	}
	gz := gzReaderPool.Get().(*gzip.Reader)
	defer gzReaderPool.Put(gz)
	if err := gz.Reset(bytes.NewReader(compressed)); err != nil {
		return nil, fmt.Errorf("opening gzip stream: %v", err)
	}
	// One spare byte: the Read that finds the stream's end (and checks the
	// gzip CRC and length) needs room to be asked for something.
	buf := make([]byte, size+1)
	var (
		n   int
		err error
	)
	for err == nil && n < len(buf) {
		var m int
		m, err = gz.Read(buf[n:])
		n += m
	}
	// Every gzip error is kept: a truncated stream is io.ErrUnexpectedEOF,
	// not a short payload.
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("decompressing: %v", err)
	}
	if int64(n) > size {
		return nil, fmt.Errorf("stream inflates past the %d bytes its manifest entry accounts for", size)
	}
	if err := gz.Close(); err != nil {
		return nil, fmt.Errorf("closing gzip stream: %v", err)
	}
	if n < len(segmentMagic) || string(buf[:len(segmentMagic)]) != segmentMagic {
		return nil, fmt.Errorf("bad segment magic")
	}
	return buf[len(segmentMagic):n], nil
}

// short abbreviates a hex digest for error messages.
func short(h string) string {
	if len(h) > 12 {
		return h[:12] + "…"
	}
	return h
}

// Chain returns the archived chain name.
func (r *Reader) Chain() string { return r.man.Chain }

// Segments reports how many segments this open reads (all of them for a
// full open, the covering subset for a ranged one).
func (r *Reader) Segments() int { return len(r.covering) }

// Blocks counts the distinct archived block numbers in this open's range.
func (r *Reader) Blocks() int64 { return int64(len(r.index)) }

// From returns the lowest archived block number in range (0 when empty).
func (r *Reader) From() int64 { return r.min }

// To returns the highest archived block number in range (0 when empty).
func (r *Reader) To() int64 { return r.max }

// Covers reports whether every block in [from, to] is archived (and in
// this open's range).
func (r *Reader) Covers(from, to int64) bool {
	if from <= 0 || to < from {
		return false
	}
	for num := from; num <= to; num++ {
		if _, ok := r.index[num]; !ok {
			return false
		}
	}
	return true
}

// Head implements collect.BlockFetcher: the archive's newest in-range
// block stands in for the live chain head.
func (r *Reader) Head(ctx context.Context) (int64, error) {
	if r.max == 0 {
		return 0, fmt.Errorf("archive: %s is empty", r.url)
	}
	return r.max, nil
}

// FetchBlock implements collect.BlockFetcher from the store. The returned
// slice is a copy in a recycled buffer — exclusively the caller's (see
// OwnsRaw).
func (r *Reader) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	ref, ok := r.index[num]
	if !ok {
		return nil, fmt.Errorf("archive: block %d is not archived in %s", num, r.url)
	}
	payload, err := r.segmentPayload(ref.seg)
	if err != nil {
		return nil, err
	}
	raw := wire.GetRaw()
	if cap(raw) < int(ref.n) {
		// Too small for this record: return it rather than letting append
		// strand it, so the pool converges on record-sized buffers.
		wire.PutRaw(raw)
		raw = make([]byte, 0, ref.n)
	}
	raw = append(raw, payload[ref.off:ref.off+int64(ref.n)]...)
	return raw, nil
}

// OwnsRaw marks FetchBlock results as exclusively caller-owned, so replay
// streams recycle payload buffers exactly like live crawls (the
// collect.RawRecycler contract).
func (r *Reader) OwnsRaw() bool { return true }

// loadSegment re-fetches and re-verifies segment i from the store. Open
// already verified the bytes; an object that fails the checksum here was
// modified after Open.
func (r *Reader) loadSegment(i int) ([]byte, error) {
	seg := r.man.Segments[i]
	compressed, err := r.store.Get(context.Background(), seg.File)
	if err != nil {
		return nil, err
	}
	if int64(len(compressed)) != seg.CompBytes {
		return nil, fmt.Errorf("archive: segment %s is %d bytes after open, manifest says %d: %w",
			seg.File, len(compressed), seg.CompBytes, ErrCorrupt)
	}
	if got := sha256Hex(compressed); got != seg.SHA256 {
		return nil, fmt.Errorf("archive: segment %s changed after open (checksum %s, expected %s): %w",
			seg.File, short(got), short(seg.SHA256), ErrCorrupt)
	}
	payload, err := decompressSegment(compressed, seg)
	if err != nil {
		return nil, fmt.Errorf("archive: segment %s: %v: %w", seg.File, err, ErrCorrupt)
	}
	return payload, nil
}

// segmentPayload returns a segment's uncompressed stream, from cache or by
// re-fetching the object, keeping the result cached for the stride-sharded
// FetchBlock walk that revisits segments many times.
func (r *Reader) segmentPayload(i int) ([]byte, error) {
	r.mu.Lock()
	if payload, ok := r.cache[i]; ok {
		r.touchLocked(i)
		r.mu.Unlock()
		return payload, nil
	}
	r.mu.Unlock()

	payload, err := r.loadSegment(i)
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if cached, ok := r.cache[i]; ok {
		// Another fetcher decompressed it concurrently; keep theirs.
		r.touchLocked(i)
		return cached, nil
	}
	r.cache[i] = payload
	r.order = append(r.order, i)
	for len(r.order) > r.maxCache {
		evict := r.order[0]
		r.order = r.order[1:]
		delete(r.cache, evict)
	}
	return payload, nil
}

// replayGrain is how many records one claimed Replay task delivers: small
// enough that a one-segment archive splits into many tasks and the last
// task a worker is left waiting on is a fraction of a millisecond of
// decode, large enough that the claim (one atomic add, one sync.Once fast
// path, one atomic decrement) vanishes beside the work. Measured with the
// repository's benchmark (`go run ./bench -workload replay -seed 1`, 20 s
// runs, blocks/s, three runs a grain taken in turn): 1 → 11,512 11,275
// 11,690; 4 → 11,335 11,492 11,949; 8 → 11,805 11,325 11,380; 16 → 11,247
// 11,643 11,469; 32 → 11,328 10,742 10,669; 64 → 10,406 10,259 10,515.
// Flat from 1 to 16, falling from 32 (its Tezos archive is 332 records of
// 3 KB, its EOS segments ~70 of 31 KB); 8 sits inside the flat stretch.
const replayGrain = 8

// replayTask is one unit of Replay work: up to replayGrain consecutive
// records that segment covering[k] owns.
type replayTask struct {
	k       int
	records []segRecord
}

// replaySlot materializes one segment's payload once per Replay, for
// however many tasks and workers walk it, and lets go of it with the
// segment's last task.
type replaySlot struct {
	once    sync.Once
	payload []byte
	err     error
	left    atomic.Int32 // tasks of this segment not yet finished
}

// Replay walks every distinct archived block in this open's range exactly
// once. Work is claimed by record range, not by segment: the records each
// covering segment owns (see Reader.tasks) are cut into tasks of
// replayGrain records in manifest order, and up to `workers` goroutines (0
// or less means one per CPU; never more than there are tasks) claim them
// from one counter — so a one-segment archive, or the last segment of a
// long one, is still walked by every worker. The first worker to reach a
// segment materializes its payload for all of them — from the cache Open
// seeded, or by one checksum-verified fetch that is not inserted into the
// cache — and the payload is dropped when the segment's last task
// finishes: tasks are claimed in order, so beyond the cache at most
// `workers` segments are ever held, and a worker that runs ahead inflates
// the next segment while the others finish the current one. A covering
// segment that owns no in-range record is never fetched. visit runs
// concurrently from all workers; the worker index (0 ≤ worker < workers)
// lets visitors keep per-worker state, e.g. core shards, without locks —
// each index is one goroutine for the whole Replay. With one worker the
// delivery order is manifest order, then write order within a segment.
//
// raw aliases the segment's decompressed payload and is only valid for the
// duration of the call — visitors must copy (or decode, the wire codecs
// copy every string they keep) before returning. Duplicate records (a
// block appended twice) are delivered exactly once, from the same
// earliest-written record FetchBlock would serve, so a Replay and a
// FetchBlock walk see byte-identical payload sets. The first visit error
// stops the replay; a cancelled ctx surfaces as its error.
func (r *Reader) Replay(ctx context.Context, workers int, visit func(worker int, num int64, raw []byte) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(r.tasks) {
		workers = len(r.tasks)
	}
	slots := make([]replaySlot, len(r.covering))
	for _, task := range r.tasks {
		slots[task.k].left.Add(1)
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		failed   atomic.Bool
		firstErr onceReplayError
	)
	fail := func(err error) {
		firstErr.set(err)
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if failed.Load() || ctx.Err() != nil {
					return
				}
				t := int(next.Add(1)) - 1
				if t >= len(r.tasks) {
					return
				}
				task := r.tasks[t]
				slot := &slots[task.k]
				slot.once.Do(func() { slot.payload, slot.err = r.replayPayload(r.covering[task.k]) })
				if slot.err != nil {
					fail(slot.err)
					return
				}
				// Offsets and lengths were verified by Open, against this
				// payload or one with the same checksum.
				for _, rec := range task.records {
					if err := visit(worker, rec.num, slot.payload[rec.off:rec.off+int64(rec.n)]); err != nil {
						fail(err)
						return
					}
				}
				if slot.left.Add(-1) == 0 {
					slot.payload = nil
				}
			}
		}(w)
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return err
	}
	return ctx.Err()
}

// replayPayload returns segment i's uncompressed stream for a Replay's
// load-once slot: a cache hit is served as-is, but a miss fetches without
// inserting — each segment is materialized exactly once per Replay, so
// caching it would only evict the segments the FetchBlock path still
// revisits.
func (r *Reader) replayPayload(i int) ([]byte, error) {
	r.mu.Lock()
	if payload, ok := r.cache[i]; ok {
		r.touchLocked(i)
		r.mu.Unlock()
		return payload, nil
	}
	r.mu.Unlock()
	return r.loadSegment(i)
}

// onceReplayError keeps the first replay error (visit errors race from
// several workers).
type onceReplayError struct {
	mu  sync.Mutex
	err error
}

func (o *onceReplayError) set(err error) {
	o.mu.Lock()
	if o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
}

func (o *onceReplayError) get() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// touchLocked moves segment i to the back of the eviction order.
func (r *Reader) touchLocked(i int) {
	for k, v := range r.order {
		if v == i {
			r.order = append(append(r.order[:k:k], r.order[k+1:]...), i)
			return
		}
	}
}
