package archive

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"slices"
	"strconv"
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
	// Workers bounds Open's verification fan-out, which is per gzip
	// member: a worker fetches and hashes a covering segment, inflates
	// one of its members — any fetched segment's — or walks a segment
	// whose members have all inflated (0 or less = one per CPU, never more
	// than the manifest suggests there are members). Replay takes its own
	// worker count.
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
	// loading holds the segments a FetchBlock miss is fetching, so the
	// stride workers that miss one segment together load it once.
	loading map[int]*segmentFetch
}

// segmentFetch is one in-flight segment fetch: done closes once payload or
// err is set.
type segmentFetch struct {
	done    chan struct{}
	payload []byte
	err     error
}

// OpenWith loads the manifest at location (a store URL or bare path) and
// verifies every segment the open covers: compressed size, checksum, magic,
// record walk, and agreement with the manifest's block count, bounds and
// byte totals. Any mismatch fails with an error wrapping ErrCorrupt. A
// location without a manifest fails with fs.ErrNotExist. Segments and
// their gzip members verify concurrently (see loadSegments), and the
// result is identical to a serial open — per-segment
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
	return openManifest(st, location, man, opts)
}

// openManifest verifies and indexes the segments of man, the manifest
// loaded from st, that opts' range covers: OpenWith after the manifest
// load, which OpenCrawl shares with the Writer it appends through.
func openManifest(st blobstore.Store, location string, man Manifest, opts OpenOptions) (*Reader, error) {
	r := &Reader{
		url:      location,
		store:    st,
		man:      man,
		index:    make(map[int64]recordRef),
		cache:    make(map[int][]byte),
		maxCache: 4,
		loading:  make(map[int]*segmentFetch),
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
	workers, members := opts.Workers, 0
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for _, i := range r.covering {
		members += memberEstimate(man.Segments[i])
	}
	workers = min(workers, members)
	// The payloads kept for the cache: the maxCache covering segments
	// holding the highest blocks, whatever their manifest position. A crawl
	// walks from its newest block down, and a crawl-written archive lists
	// its newest blocks first while one written oldest-first lists them
	// last. Listed highest first, so the walk's first segment is the
	// cache's first to evict.
	kept := make([]int, len(r.covering)) // positions in r.covering
	for k := range kept {
		kept[k] = k
	}
	slices.SortStableFunc(kept, func(a, b int) int {
		return cmp.Compare(man.Segments[r.covering[b]].Max, man.Segments[r.covering[a]].Max)
	})
	kept = kept[:min(len(kept), r.maxCache)]
	type verdict struct {
		records []segRecord
		payload []byte
		err     error
	}
	verdicts := make([]verdict, len(r.covering))
	r.loadSegments(r.covering, workers, func(k int, payload []byte, err error) {
		seg := man.Segments[r.covering[k]]
		if errors.Is(err, fs.ErrNotExist) {
			err = fmt.Errorf("archive: manifest references missing segment %s: %w", seg.File, ErrCorrupt)
		}
		var records []segRecord
		if err == nil {
			records, err = walkRecords(seg, payload)
		}
		// Only the kept payloads are held for the cache below; dropping
		// the rest here keeps Open's peak memory at O(workers + maxCache)
		// segments instead of the whole uncompressed archive.
		if !slices.Contains(kept, k) {
			payload = nil
		}
		verdicts[k] = verdict{records, payload, err}
	})
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
	// Seed the payload cache with the kept segments: the
	// reverse-chronological crawl replays them first, and re-reading what
	// Open just decompressed was the old path's wasted second pass.
	for _, k := range kept {
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

// walkRecords walks a segment's verified stream, returning the records it
// holds in write order, and checks them against the segment's manifest
// entry.
func walkRecords(seg SegmentInfo, payload []byte) ([]segRecord, error) {
	// Sized from the manifest's count, which the payload bounds: a record
	// is at least its 12-byte header.
	records := make([]segRecord, 0, min(seg.Blocks, int64(len(payload))/12))
	var (
		rawBytes int64
		min, max int64
	)
	for off := int64(0); off < int64(len(payload)); {
		if int64(len(payload))-off < 12 {
			return nil, fmt.Errorf("archive: segment %s ends mid-record header: %w", seg.File, ErrCorrupt)
		}
		num := int64(binary.BigEndian.Uint64(payload[off : off+8]))
		n := int64(binary.BigEndian.Uint32(payload[off+8 : off+12]))
		off += 12
		if num <= 0 || n > maxRecordBytes || off+n > int64(len(payload)) {
			return nil, fmt.Errorf("archive: segment %s has a malformed record for block %d: %w", seg.File, num, ErrCorrupt)
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
		return nil, fmt.Errorf("archive: segment %s disagrees with manifest (blocks %d/%d, bytes %d/%d, range [%d,%d]/[%d,%d]): %w",
			seg.File, len(records), seg.Blocks, rawBytes, seg.RawBytes, min, max, seg.Min, seg.Max, ErrCorrupt)
	}
	return records, nil
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

// CompressedBytes is the archive's on-disk footprint: the summed object
// sizes of every segment its manifest lists, whatever this open's range —
// the gzip size of the dataset (the paper's Figure 2 column).
func (r *Reader) CompressedBytes() int64 {
	var total int64
	for _, seg := range r.man.Segments {
		total += seg.CompBytes
	}
	return total
}

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

// CheckComplete refuses an open with holes: one that does not hold every
// block in [From(), To()], as an interrupted crawl that was never resumed
// leaves it. Replaying around the holes would skew every figure.
func (r *Reader) CheckComplete() error {
	if r.max == 0 || int64(len(r.index)) == r.max-r.min+1 {
		return nil
	}
	return fmt.Errorf("archive %s is incomplete: %d blocks in [%d, %d] — rerun the crawl with the same -archive to fetch the rest",
		r.url, r.Blocks(), r.min, r.max)
}

// checkWithin refuses an open holding blocks outside a crawl of [from, to]:
// any below from, and any above to unless to is 0 (the head, which bounds
// nothing). Such blocks come from a wider crawl or another scenario, and a
// crawl resumed into the archive would fold only its own range: its
// figures would differ from a replay of the archive. An empty open passes.
func (r *Reader) checkWithin(from, to int64) error {
	if r.max == 0 || (r.min >= from && (to == 0 || r.max <= to)) {
		return nil
	}
	upper := "head"
	if to != 0 {
		upper = strconv.FormatInt(to, 10)
	}
	return fmt.Errorf("archive %s covers [%d, %d] (%d blocks) but the crawl is over [%d, %s] — crawl a range that covers the archive, or delete the archive to recrawl",
		r.url, r.min, r.max, r.Blocks(), from, upper)
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

// loadSegment re-fetches and re-verifies segment i from the store, its
// members inflating in parallel. Open already verified the bytes; an
// object that fails the checksum here was modified after Open.
func (r *Reader) loadSegment(i int) ([]byte, error) {
	var (
		payload []byte
		err     error
	)
	workers := min(runtime.GOMAXPROCS(0), memberEstimate(r.man.Segments[i]))
	r.loadSegments([]int{i}, workers, func(_ int, p []byte, e error) { payload, err = p, e })
	return payload, err
}

// segmentPayload returns a segment's uncompressed stream, from cache or by
// re-fetching the object, keeping the result cached for the stride-sharded
// FetchBlock walk that revisits segments many times. Fetchers that miss
// one segment together share one load; a failed load is not kept, so the
// next miss (a stream retry) loads again.
func (r *Reader) segmentPayload(i int) ([]byte, error) {
	r.mu.Lock()
	if payload, ok := r.cache[i]; ok {
		r.touchLocked(i)
		r.mu.Unlock()
		return payload, nil
	}
	if l, ok := r.loading[i]; ok {
		r.mu.Unlock()
		<-l.done
		return l.payload, l.err
	}
	l := &segmentFetch{done: make(chan struct{})}
	r.loading[i] = l
	r.mu.Unlock()

	l.payload, l.err = r.loadSegment(i)

	r.mu.Lock()
	delete(r.loading, i)
	if l.err == nil {
		r.cache[i] = l.payload
		r.order = append(r.order, i)
		for len(r.order) > r.maxCache {
			evict := r.order[0]
			r.order = r.order[1:]
			delete(r.cache, evict)
		}
	}
	r.mu.Unlock()
	close(l.done)
	return l.payload, l.err
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

// touchLocked moves segment i to the back of the eviction order in place,
// so a cache hit allocates nothing.
func (r *Reader) touchLocked(i int) {
	for k, v := range r.order {
		if v == i {
			copy(r.order[k:], r.order[k+1:])
			r.order[len(r.order)-1] = i
			return
		}
	}
}
