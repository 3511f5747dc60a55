package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/collect"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Decoder splits ingestion into its two costs so they can be scheduled
// separately: Decode is the CPU-bound, lock-free parse of one wire payload,
// and IngestBatch folds a batch of decoded blocks into the aggregate under
// a single lock acquisition. NewStatsKit hands one out per chain; Decode
// must be safe for concurrent use.
type Decoder interface {
	Decode(num int64, raw []byte) (any, error)
	IngestBatch(batch []any) error
}

// Shard is one ingest worker's private, lock-free accumulator. IngestBatch
// folds decoded blocks in without any synchronization — exactly one
// goroutine owns a Shard between NewShard and Merge — and Merge folds the
// shard into its parent aggregate (one lock acquisition) and resets it.
// Because every aggregate the shards keep is order-independent, any
// partition of blocks across any number of shards merges to the same
// result (see DESIGN.md "sharded aggregation & merge semantics").
type Shard interface {
	IngestBatch(batch []any) error
	Merge()
}

// ShardedDecoder is implemented by Decoders whose aggregate can hand out
// mergeable shards — the only kind the ingest pool drives. IngestCrawl,
// IngestArchive and IngestChunks give each worker its own shard, so the hot
// path takes no lock: the only lock acquisitions are the per-worker merges.
type ShardedDecoder interface {
	Decoder
	NewShard() Shard
}

// BatchReleaser is implemented by Decoders whose decoded values come from
// a reusable arena (wire.GetEOSBlock and friends). After IngestBatch has
// folded a batch in, the ingest pool hands the values back through
// ReleaseBatch; the shards retain only strings (immutable, safe
// forever), never the structs, slices or maps themselves — the contract
// that makes the steady-state ingest path allocation-free.
type BatchReleaser interface {
	ReleaseBatch(batch []any)
}

// kitState is the one lock in core: a StatsKit's aggregate, the state its
// worker shards spawn from and merge back into. Everything that touches
// state while ingestion may run — the Decoder contract's locked
// IngestBatch, shard spawns and merges, StatsKit's Txs and Summarize —
// holds mu.
type kitState struct {
	mu    sync.Mutex
	state ShardState
	// blank returns an empty state with state's window; the caller holds mu.
	blank func() ShardState
}

// merge folds a shard spawned from k into the aggregate and resets it.
func (k *kitState) merge(st ShardState) {
	k.mu.Lock()
	defer k.mu.Unlock()
	// st is a blank of state — same chain, same window, since nothing
	// replaces state while its shards are out (a coord worker decodes its
	// checkpoint before the pool spawns any) — and covers no range that
	// could overlap state's, so Merge cannot refuse it. An error here is a
	// programming bug — same contract as stats.TimeSeries.Merge.
	if err := k.state.Merge(st); err != nil {
		panic(err)
	}
}

func (k *kitState) summarize() ChainSummary {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.state.Summary()
}

// counter reads one of state's counters under the lock.
func (k *kitState) counter(n *int64) func() int64 {
	return func() int64 {
		k.mu.Lock()
		defer k.mu.Unlock()
		return *n
	}
}

// chainDecoder is the one Decoder (and ShardedDecoder, and BatchReleaser)
// implementation, instantiated per chain over the wire arena type B: get
// and put borrow and return an arena struct, decode is the pooled codec's
// method for the chain's payload.
type chainDecoder[B any] struct {
	k      *kitState
	what   string // "EOS block", for decode errors
	get    func() *B
	put    func(*B)
	decode func(*wire.Codec, []byte, *B) error
}

// Decode parses one raw payload into an arena struct through the pooled
// wire codec; ReleaseBatch recycles it after ingestion.
func (d *chainDecoder[B]) Decode(num int64, raw []byte) (any, error) {
	b := d.get()
	c := wire.GetCodec()
	err := d.decode(c, raw, b)
	wire.PutCodec(c)
	if err != nil {
		d.put(b)
		return nil, fmt.Errorf("core: decoding %s: %w", d.what, err)
	}
	return b, nil
}

// IngestBatch folds decoded blocks into the aggregate, one lock for the
// whole batch.
func (d *chainDecoder[B]) IngestBatch(batch []any) error {
	d.k.mu.Lock()
	defer d.k.mu.Unlock()
	return d.k.state.IngestBatch(batch)
}

// ReleaseBatch returns decoded blocks to the wire arena.
func (d *chainDecoder[B]) ReleaseBatch(batch []any) {
	for _, b := range batch {
		d.put(b.(*B))
	}
}

// NewShard hands one ingest worker a private shard state.
func (d *chainDecoder[B]) NewShard() Shard {
	d.k.mu.Lock()
	defer d.k.mu.Unlock()
	return &stateShard{k: d.k, state: d.k.blank()}
}

// stateShard adapts a ShardState spawned from a kit to the ingest pool's
// Shard interface.
type stateShard struct {
	k     *kitState
	state ShardState
}

func (s *stateShard) IngestBatch(batch []any) error { return s.state.IngestBatch(batch) }

func (s *stateShard) Merge() { s.k.merge(s.state) }

// IngestConfig sizes the decode/ingest pool behind IngestCrawl,
// IngestArchive and IngestChunks.
type IngestConfig struct {
	// Workers is the number of decode goroutines (default: 2 for a stream,
	// one per CPU for an archive replay). Decoding is the CPU-bound half of
	// ingestion; it runs off the crawl workers so fetch concurrency and
	// decode concurrency scale independently.
	Workers int
}

// ingestBatchSize is how many decoded blocks each ingest worker
// accumulates before one shard IngestBatch call, so arena structs recycle
// in bulk.
const ingestBatchSize = 16

// ingestPool is the per-worker batch, flush and merge state ingestStream,
// IngestArchive and IngestChunks share. Worker w's slot is touched only by
// the goroutine running worker w until drain, which the caller runs once
// every worker has returned.
type ingestPool struct {
	d        ShardedDecoder
	releaser BatchReleaser // nil when decoded values are not arena-backed
	workers  []ingestWorker
}

type ingestWorker struct {
	shard    Shard // the worker's private accumulator
	batch    []any
	ingested int64
}

// newIngestPool gives each of workers its own shard of d, refusing a
// decoder that cannot hand one out.
func newIngestPool(d Decoder, workers int) (*ingestPool, error) {
	sharded, ok := d.(ShardedDecoder)
	if !ok {
		return nil, fmt.Errorf("core: ingest needs a sharded decoder, got %T", d)
	}
	p := &ingestPool{d: sharded, workers: make([]ingestWorker, workers)}
	p.releaser, _ = d.(BatchReleaser)
	for w := range p.workers {
		p.workers[w].shard = sharded.NewShard()
		p.workers[w].batch = make([]any, 0, ingestBatchSize)
	}
	return p, nil
}

// add decodes one payload on worker w and folds the worker's batch once it
// is full. raw is not retained.
func (p *ingestPool) add(w int, num int64, raw []byte) error {
	dec, err := p.d.Decode(num, raw)
	if err != nil {
		return fmt.Errorf("core: decoding block %d: %w", num, err)
	}
	wk := &p.workers[w]
	wk.batch = append(wk.batch, dec)
	if len(wk.batch) >= ingestBatchSize {
		return p.flush(w)
	}
	return nil
}

// flush folds worker w's pending batch into its shard and hands the
// decoded structs back to the arena — the shard kept only strings.
func (p *ingestPool) flush(w int) error {
	wk := &p.workers[w]
	if len(wk.batch) == 0 {
		return nil
	}
	if err := wk.shard.IngestBatch(wk.batch); err != nil {
		return err
	}
	wk.ingested += int64(len(wk.batch))
	if p.releaser != nil {
		p.releaser.ReleaseBatch(wk.batch)
	}
	wk.batch = wk.batch[:0]
	return nil
}

// drain flushes every worker's remainder and merges the shards in worker
// order — the merge order is fixed even though workers finish in any
// order, so the only scheduling freedom left is which worker ingested
// which block, and shard merges are insensitive to exactly that. It runs
// even after an error, so the partial aggregate holds every batch a worker
// folded. It returns the blocks ingested and err, or the first flush error
// when err is nil.
func (p *ingestPool) drain(err error) (int64, error) {
	var ingested int64
	for w := range p.workers {
		if ferr := p.flush(w); ferr != nil && err == nil {
			err = ferr
		}
		ingested += p.workers[w].ingested
	}
	for w := range p.workers {
		p.workers[w].shard.Merge()
	}
	return ingested, err
}

// ingestStream drains a crawl stream through a pool of cfg.Workers decode
// goroutines (default 2), each folding its blocks into a private shard of
// d — zero lock acquisitions on the hot path — and merges the shards into
// the aggregate in worker order once the stream drains. It returns the
// number of blocks ingested and the first decode/ingest error; a decoder
// that is not a ShardedDecoder is refused before anything is received.
//
// Cancellation is driven by the stream itself: when ctx is cancelled the
// crawl workers stop and close the channel, and ingestStream keeps
// draining until then, so every block the stream delivered is in the
// partial aggregate it returns. On a decode/ingest error, by contrast, the
// pool stops receiving immediately; the caller must then cancel the
// stream's context to unblock crawl workers behind a full buffer
// (IngestCrawl does).
func ingestStream(ctx context.Context, blocks <-chan collect.Block, d Decoder, cfg IngestConfig) (int64, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2
	}
	pool, err := newIngestPool(d, workers)
	if err != nil {
		return 0, err
	}
	var (
		wg       sync.WaitGroup
		firstErr atomic.Value
		failed   atomic.Bool
	)
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, err)
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for blk := range blocks {
				if failed.Load() {
					blk.Release()
					return
				}
				err := pool.add(w, blk.Num, blk.Raw)
				// Decoded structs own copies of everything they keep, so
				// the raw payload buffer recycles immediately.
				blk.Release()
				if err != nil {
					fail(err)
					return
				}
			}
			// Each worker folds its own remainder, so a stream shorter
			// than one batch per worker still aggregates in parallel.
			if err := pool.flush(w); err != nil {
				fail(err)
			}
		}(w)
	}
	wg.Wait()
	err, _ = firstErr.Load().(error)
	return pool.drain(err)
}

// PeriodicMerge wraps a sharded decoder so each ingest worker's private
// shard folds into the parent aggregate every `batches` IngestBatch calls
// instead of only at drain. Merge resets the source shard, so the worker
// keeps reusing it; between merges the hot path stays lock-free.
// This is the serving layer's ingest mode: the aggregate continuously
// absorbs epoch-sized deltas that StatsKit.Summarize can snapshot
// mid-crawl, at a cost of one lock acquisition per worker per `batches`
// batches rather than one per worker per stream. A non-sharded decoder is
// returned unchanged, and the ingest pool refuses it.
func PeriodicMerge(d Decoder, batches int) Decoder {
	sharded, ok := d.(ShardedDecoder)
	if !ok {
		return d
	}
	if batches <= 0 {
		batches = 4
	}
	return periodicDecoder{Decoder: d, sharded: sharded, every: batches}
}

type periodicDecoder struct {
	Decoder
	sharded ShardedDecoder
	every   int
}

func (p periodicDecoder) NewShard() Shard {
	return &periodicShard{inner: p.sharded.NewShard(), every: p.every}
}

// ReleaseBatch delegates to the wrapped decoder's arena recycling (if any);
// the wrapper must keep satisfying BatchReleaser or the ingest pool would
// silently stop recycling decoded structs.
func (p periodicDecoder) ReleaseBatch(batch []any) {
	if r, ok := p.Decoder.(BatchReleaser); ok {
		r.ReleaseBatch(batch)
	}
}

// periodicShard counts batches and merges the wrapped shard into its
// aggregate every `every` batches. Merge resets the inner shard, so it
// remains the worker's accumulator for the next epoch.
type periodicShard struct {
	inner    Shard
	every, n int
}

func (s *periodicShard) IngestBatch(batch []any) error {
	if err := s.inner.IngestBatch(batch); err != nil {
		return err
	}
	if s.n++; s.n >= s.every {
		s.inner.Merge()
		s.n = 0
	}
	return nil
}

func (s *periodicShard) Merge() { s.inner.Merge() }

// ErrIngest marks errors that came from the decode/ingest side of
// IngestCrawl rather than the crawl itself: the stream delivered blocks
// that were never folded into the aggregate, so the aggregate is short of
// what the crawl fetched.
var ErrIngest = errors.New("core: ingest failed")

// IngestCrawl is the one canonical wiring of the streaming path: it starts
// collect.Stream, drains it through ingestStream, and handles the
// cancel-on-ingest-error dance that unblocks crawl workers stalled on a
// full buffer. The pipeline stages, cmd/crawl and cmd/serve's live feeds
// all run on it. It is where Figure 2's footprint is measured: when
// ccfg.Tee is nil it tees the stream into a stats.GzipSizer and returns its
// total in the result's GzipBytes (the handle, which has finished, does not
// carry it); a caller that tees keeps the bytes and sizes them itself.
func IngestCrawl(ctx context.Context, f collect.BlockFetcher, ccfg collect.CrawlConfig, d Decoder, icfg IngestConfig) (collect.CrawlResult, *collect.CrawlHandle, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var sizer *stats.GzipSizer
	if ccfg.Tee == nil {
		sizer = stats.NewGzipSizer()
		defer sizer.Close() // recycle the pooled compressor
		ccfg.Tee = func(_ int64, raw []byte) error { _, err := sizer.Write(raw); return err }
	}
	blocks, handle := collect.Stream(ctx, f, ccfg)
	_, ierr := ingestStream(ctx, blocks, d, icfg)
	if ierr != nil {
		cancel() // unblock crawl workers stalled on a full buffer
	}
	res, cerr := handle.Wait()
	if sizer != nil {
		res.GzipBytes = sizer.CompressedBytes()
	}
	if ierr != nil {
		return res, handle, fmt.Errorf("%w: %w", ErrIngest, ierr)
	}
	return res, handle, cerr
}

// maxOpenChunks is how many chunk states IngestChunks lets pile up behind a
// cut that is slower than the crawl (a remote store) before ingest workers
// wait for it.
const maxOpenChunks = 8

// IngestChunks is IngestCrawl for a consumer that checkpoints: one gapless
// stream and one ingest pool over [ccfg.From, ccfg.To] (both concrete),
// with the aggregate behind d brought forward in chunks of `every` blocks,
// newest chunk first (every <= 0: the range is one chunk). Each ingest
// worker folds a block into a private shard of the block's chunk (and never
// sleeps on an empty stream with blocks still unfolded); a chunk is
// complete once its last block is folded. One goroutine — the aggregate's
// only writer for the duration of the call — merges complete chunks
// strictly in order and cuts the aggregate between them:
//
//   - once the oldest open chunk is complete it takes that chunk and every
//     chunk after it already complete, merges them in order and calls
//     cut(lo) once, lo being the lowest block of the last one;
//   - cuts fall on chunk boundaries and strictly descend, and inside cut the
//     aggregate holds exactly the blocks of [lo, ccfg.To] (plus whatever it
//     held before the call) while the stream and the ingest workers run on;
//   - only one cut runs at a time, and every chunk complete when it returns
//     is in the next one;
//   - on success the last call is cut(ccfg.From): a run that reaches the
//     range's last chunk is cut there only, which a consumer whose final
//     emit replaces the checkpoint can skip.
//
// every is therefore how far, at most, the aggregate of a cut that keeps up
// with the crawl trails its folds — not a promise of one cut per chunk. cut
// is never called past a block the stream failed to deliver, and a cut
// error stops the crawl and is returned.
//
// When ctx is cancelled, a block exhausts its retries or ingestion fails,
// IngestChunks still cuts every chunk it already holds complete — as one
// cut, and cut must not depend on ctx being live — and drops the partial
// chunks beyond, so the aggregate stays what the last cut saw. Ingestion
// errors come back wrapped in ErrIngest. Unlike IngestCrawl it sizes
// nothing (GzipBytes stays zero): no chunked consumer reports a footprint,
// so the deflate is skipped.
//
// d's shards must fold into the aggregate only when merged (a PeriodicMerge
// decoder does not qualify). Chunk states are bounded by the stream's
// in-flight window W = Buffer + 2·Workers + 1, not by the range: however
// far a stuck fetch would let the other fetch workers run, at most
// ⌈W/every⌉ + 1 chunks are open while the oldest waits on a block the
// stream has not delivered, and once more than maxOpenChunks are open
// behind a slow cut the ingest workers wait for it. What an ingest worker
// already holds is deliberately outside that bound: a worker descheduled
// with a block in hand keeps that block's chunk open for as long as it
// stays away, and the others are never parked behind it — workers parked
// with the missing block still in the channel would be a deadlock.
func IngestChunks(ctx context.Context, f collect.BlockFetcher, ccfg collect.CrawlConfig, d Decoder, icfg IngestConfig, every int64, cut func(lo int64) error) (collect.CrawlResult, error) {
	if ccfg.From < 1 || ccfg.To < ccfg.From {
		return collect.CrawlResult{}, fmt.Errorf("core: chunked ingest needs a concrete range, got [%d, %d]", ccfg.From, ccfg.To)
	}
	blocks := ccfg.To - ccfg.From + 1
	if every <= 0 || every > blocks {
		every = blocks
	}
	workers := icfg.Workers
	if workers <= 0 {
		workers = 2
	}
	pool, err := newIngestPool(d, workers)
	if err != nil {
		return collect.CrawlResult{}, err
	}
	c := newChunkCutter(ccfg.From, ccfg.To, every, workers, pool.d)
	// Workers take their shard per chunk, so the pool's own seed the free
	// list.
	for w := range pool.workers {
		c.free = append(c.free, pool.workers[w].shard)
		pool.workers[w].shard = nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stream, handle := collect.StreamGapless(ctx, f, ccfg)

	var cutErr error
	cutDone := make(chan struct{})
	go func() {
		defer close(cutDone)
		if cutErr = c.run(cut); cutErr != nil {
			cancel() // the workers drain what is left of the stream and exit
		}
	}()

	var (
		wg       sync.WaitGroup
		firstErr atomic.Value
		failed   atomic.Bool
	)
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, err)
		failed.Store(true)
		cancel() // unblock crawl workers stalled on a full buffer
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := &pool.workers[w]
			chunk, reported := int64(-1), int64(0)
			// report tells the cutter what the pool has folded into the
			// current chunk's shard since the last report.
			report := func() {
				if n := wk.ingested - reported; n > 0 {
					reported = wk.ingested
					c.folded(chunk, n)
				}
			}
			for {
				var (
					blk collect.Block
					ok  bool
				)
				select {
				case blk, ok = <-stream:
				default:
					// Nothing is waiting: fold the pending batch before
					// sleeping on the channel, so a chunk whose last block
					// sits in it completes now, not when this worker next
					// happens to receive.
					if err := pool.flush(w); err != nil {
						fail(err)
						return
					}
					report()
					blk, ok = <-stream
				}
				if !ok {
					break
				}
				if failed.Load() {
					blk.Release()
					return
				}
				var err error
				if k := (c.to - blk.Num) / c.every; k != chunk {
					// A batch never spans chunks: fold what is pending
					// into the chunk it belongs to first.
					if err = pool.flush(w); err == nil {
						report()
						wk.shard, chunk = c.shard(w, k), k
					}
				}
				if err == nil {
					err = pool.add(w, blk.Num, blk.Raw)
				}
				blk.Release()
				if err != nil {
					fail(err)
					return
				}
				report()
			}
			// The stream has closed: fold the remainder, so every chunk
			// whose blocks all arrived gets cut on the way out.
			if err := pool.flush(w); err != nil {
				fail(err)
				return
			}
			report()
		}(w)
	}
	wg.Wait()
	c.seal()
	<-cutDone
	res, cerr := handle.Wait()
	if ierr, _ := firstErr.Load().(error); ierr != nil {
		return res, fmt.Errorf("%w: %w", ErrIngest, ierr)
	}
	if cutErr != nil {
		return res, cutErr
	}
	return res, cerr
}

// chunkCutter is the state IngestChunks' ingest workers and its cutting
// goroutine share: the open chunks, keyed by position in the crawl (chunk 0
// ends at `to`), and the shards waiting for reuse.
type chunkCutter struct {
	from, to, every int64
	chunks          int64 // how many the range cuts into
	workers         int
	sharded         ShardedDecoder

	mu sync.Mutex
	// wake: a chunk completed, a cut finished, the workers are gone, or
	// the cutter is.
	wake    *sync.Cond
	open    map[int64]*openChunk
	free    []Shard // merged, therefore reset
	next    int64   // oldest chunk not yet cut
	sealed  bool    // the ingest workers have exited: nothing more will fold
	stopped bool    // the cutting goroutine has exited
}

// newChunkCutter cuts [from, to] into chunks of every blocks, newest first,
// for workers ingest workers that draw their shards from sharded.
func newChunkCutter(from, to, every int64, workers int, sharded ShardedDecoder) *chunkCutter {
	c := &chunkCutter{
		from: from, to: to, every: every,
		chunks:  (to - from + every) / every,
		workers: workers, sharded: sharded,
		open: make(map[int64]*openChunk),
	}
	c.wake = sync.NewCond(&c.mu)
	return c
}

type openChunk struct {
	shards  []Shard // one per ingest worker, nil until its first block of the chunk
	missing int64   // blocks not folded yet
}

// lo returns chunk k's lowest block.
func (c *chunkCutter) lo(k int64) int64 {
	if lo := c.to - (k+1)*c.every + 1; lo > c.from {
		return lo
	}
	return c.from
}

// shard returns worker w's private shard for chunk k, opening the chunk or
// the shard as needed. Only worker w touches it until the chunk completes.
func (c *chunkCutter) shard(w int, k int64) Shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := c.open[k]
	if ch == nil {
		ch = &openChunk{shards: make([]Shard, c.workers), missing: c.to - k*c.every - c.lo(k) + 1}
		c.open[k] = ch
	}
	if ch.shards[w] == nil {
		if n := len(c.free); n > 0 {
			ch.shards[w], c.free = c.free[n-1], c.free[:n-1]
		} else {
			ch.shards[w] = c.sharded.NewShard()
		}
	}
	return ch.shards[w]
}

// complete reports whether chunk k is open with every block folded. Caller
// holds mu.
func (c *chunkCutter) complete(k int64) bool {
	ch := c.open[k]
	return ch != nil && ch.missing == 0
}

// ripe reports whether the oldest open chunk is complete. Caller holds mu.
func (c *chunkCutter) ripe() bool { return c.complete(c.next) }

// folded records that n more blocks of chunk k are in their shards. The
// caller then waits while the cutter is behind by more than maxOpenChunks —
// only while the oldest chunk is ripe, that is while the cutter can move
// without this worker: parking behind a chunk that still misses a block
// could park every worker with that block undelivered in the channel.
func (c *chunkCutter) folded(k, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := c.open[k]
	if ch.missing -= n; ch.missing == 0 {
		c.wake.Broadcast()
	}
	for len(c.open) > maxOpenChunks && c.ripe() && !c.stopped {
		c.wake.Wait()
	}
}

// seal tells the cutter no more blocks will fold.
func (c *chunkCutter) seal() {
	c.mu.Lock()
	c.sealed = true
	c.wake.Broadcast()
	c.mu.Unlock()
}

// run merges chunks into the aggregate in order as they complete, until
// the range is done, cut fails, or the workers are gone and the oldest
// chunk is still short. Each time the oldest open chunk is ripe it takes
// that chunk and every chunk after it already complete — a run — merges
// their shards in order and calls cut once, at the run's lowest block.
func (c *chunkCutter) run(cut func(lo int64) error) (err error) {
	defer func() {
		c.mu.Lock()
		c.stopped = true
		c.wake.Broadcast()
		c.mu.Unlock()
	}()
	// next is written here only, so reading it needs no lock.
	for c.next < c.chunks {
		c.mu.Lock()
		for !c.ripe() && !c.sealed {
			c.wake.Wait()
		}
		end := c.next
		for end < c.chunks && c.complete(end) {
			end++
		}
		c.mu.Unlock()
		if end == c.next {
			return nil
		}
		// No worker touches a complete chunk's shards again, and the run
		// stays in open, complete, while it is cut: that is what lets
		// workers wait on a slow cut. Workers open later chunks meanwhile,
		// so each lookup takes the lock.
		for k := c.next; k < end; k++ {
			c.mu.Lock()
			ch := c.open[k]
			c.mu.Unlock()
			for _, s := range ch.shards {
				if s != nil {
					s.Merge()
				}
			}
		}
		err = cut(c.lo(end - 1))
		c.mu.Lock()
		for ; c.next < end; c.next++ {
			for _, s := range c.open[c.next].shards {
				if s != nil {
					c.free = append(c.free, s)
				}
			}
			delete(c.open, c.next)
		}
		c.wake.Broadcast()
		c.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
