package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/collect"
	"repro/internal/wire"
)

// Decoder splits ingestion into its two costs so they can be scheduled
// separately: Decode is the CPU-bound, lock-free parse of one wire payload,
// and IngestBatch folds a batch of decoded blocks into the aggregator under
// a single lock acquisition. Every aggregator hands one out through its
// Decoder method; Decode must be safe for concurrent use.
type Decoder interface {
	Decode(num int64, raw []byte) (any, error)
	IngestBatch(batch []any) error
}

// Shard is one ingest worker's private, lock-free accumulator. IngestBatch
// folds decoded blocks in without any synchronization — exactly one
// goroutine owns a Shard between NewShard and Merge — and Merge folds the
// shard into its parent aggregator (one lock acquisition) and resets it.
// Because every aggregate the shards keep is order-independent, any
// partition of blocks across any number of shards merges to the same
// result (see DESIGN.md "sharded aggregation & merge semantics").
type Shard interface {
	IngestBatch(batch []any) error
	Merge()
}

// ShardedDecoder is implemented by Decoders whose aggregator can hand out
// mergeable shards. IngestStream and IngestArchive give each worker its own
// shard, deleting the per-batch aggregator lock from the hot path: the only
// lock acquisitions left are the per-worker merges at drain.
type ShardedDecoder interface {
	Decoder
	NewShard() Shard
}

// BatchReleaser is implemented by Decoders whose decoded values come from
// a reusable arena (wire.GetEOSBlock and friends). After IngestBatch has
// folded a batch in, the ingest pool hands the values back through
// ReleaseBatch; the aggregators retain only strings (immutable, safe
// forever), never the structs, slices or maps themselves — the contract
// that makes the steady-state ingest path allocation-free.
type BatchReleaser interface {
	ReleaseBatch(batch []any)
}

// aggregator is what the three chains' aggregators share: a locked batch
// ingest, and private shard states spawned from and folded back into them.
type aggregator interface {
	IngestBatch(batch []any) error
	NewState() ShardState
	MergeState(ShardState) error
}

// chainDecoder is the one Decoder (and ShardedDecoder, and BatchReleaser)
// implementation, instantiated per chain over the wire arena type B: get
// and put borrow and return an arena struct, decode is the pooled codec's
// method for the chain's payload.
type chainDecoder[B any] struct {
	agg    aggregator
	what   string // "EOS block", for decode errors
	get    func() *B
	put    func(*B)
	decode func(*wire.Codec, []byte, *B) error
}

// Decoder drives the aggregator from raw nodeos-style block JSON.
func (a *EOSAggregator) Decoder() Decoder {
	return &chainDecoder[wire.EOSBlockJSON]{a, "EOS block",
		wire.GetEOSBlock, wire.PutEOSBlock, (*wire.Codec).DecodeEOSBlock}
}

// Decoder drives the aggregator from raw octez-style block JSON.
func (a *TezosAggregator) Decoder() Decoder {
	return &chainDecoder[wire.TezosBlockJSON]{a, "Tezos block",
		wire.GetTezosBlock, wire.PutTezosBlock, (*wire.Codec).DecodeTezosBlock}
}

// Decoder drives the aggregator from raw rippled ledger result envelopes.
func (a *XRPAggregator) Decoder() Decoder {
	return &chainDecoder[wire.XRPLedgerJSON]{a, "XRP ledger",
		wire.GetXRPLedger, wire.PutXRPLedger, (*wire.Codec).DecodeXRPLedgerResult}
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

// IngestBatch folds decoded blocks into the aggregator, one lock for the
// whole batch.
func (d *chainDecoder[B]) IngestBatch(batch []any) error { return d.agg.IngestBatch(batch) }

// ReleaseBatch returns decoded blocks to the wire arena.
func (d *chainDecoder[B]) ReleaseBatch(batch []any) {
	for _, b := range batch {
		d.put(b.(*B))
	}
}

// NewShard hands one ingest worker a private shard state.
func (d *chainDecoder[B]) NewShard() Shard {
	return &stateShard{agg: d.agg, state: d.agg.NewState()}
}

// stateShard adapts a ShardState spawned from an aggregator to the ingest
// pool's Shard interface.
type stateShard struct {
	agg   aggregator
	state ShardState
}

func (s *stateShard) IngestBatch(batch []any) error { return s.state.IngestBatch(batch) }

func (s *stateShard) Merge() {
	// A shard spawned from its own aggregator can never mismatch chain or
	// window, so an error here is a programming bug — same contract as
	// stats.TimeSeries.Merge.
	if err := s.agg.MergeState(s.state); err != nil {
		panic(err)
	}
}

// IngestConfig sizes the decode/ingest pool behind IngestStream and
// IngestArchive.
type IngestConfig struct {
	// Workers is the number of decode goroutines (default: 2 for a stream,
	// one per CPU for an archive replay). Decoding is the CPU-bound half of
	// ingestion; it runs off the crawl workers so fetch concurrency and
	// decode concurrency scale independently.
	Workers int
	// Batch is how many decoded blocks each worker accumulates before one
	// IngestBatch call — blocks per aggregator lock acquisition
	// (default 16).
	Batch int
}

// ingestPool is the per-worker batch, flush and merge state IngestStream
// and IngestArchive share. Worker w's slot is touched only by the goroutine
// running worker w until drain, which the caller runs once every worker
// has returned.
type ingestPool struct {
	d        Decoder
	releaser BatchReleaser // nil when decoded values are not arena-backed
	batchCap int
	workers  []ingestWorker
}

type ingestWorker struct {
	// shard is the worker's private accumulator; nil for a non-sharded
	// decoder, whose batches fold into d under the aggregator lock.
	shard    Shard
	batch    []any
	ingested int64
}

func newIngestPool(d Decoder, workers, batchCap int) *ingestPool {
	if batchCap <= 0 {
		batchCap = 16
	}
	p := &ingestPool{d: d, batchCap: batchCap, workers: make([]ingestWorker, workers)}
	p.releaser, _ = d.(BatchReleaser)
	sharded, _ := d.(ShardedDecoder)
	for w := range p.workers {
		if sharded != nil {
			p.workers[w].shard = sharded.NewShard()
		}
		p.workers[w].batch = make([]any, 0, batchCap)
	}
	return p
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
	if len(wk.batch) >= p.batchCap {
		return p.flush(w)
	}
	return nil
}

// flush folds worker w's pending batch into its shard (or the locked
// aggregator) and hands the decoded structs back to the arena — the
// aggregator kept only strings.
func (p *ingestPool) flush(w int) error {
	wk := &p.workers[w]
	if len(wk.batch) == 0 {
		return nil
	}
	var err error
	if wk.shard != nil {
		err = wk.shard.IngestBatch(wk.batch)
	} else {
		err = p.d.IngestBatch(wk.batch)
	}
	if err != nil {
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
// even after an error: batches already folded into shards mirror batches
// the locked path would already have applied, so the partial aggregate
// looks the same either way. It returns the blocks ingested and err, or
// the first flush error when err is nil.
func (p *ingestPool) drain(err error) (int64, error) {
	var ingested int64
	for w := range p.workers {
		if ferr := p.flush(w); ferr != nil && err == nil {
			err = ferr
		}
		ingested += p.workers[w].ingested
	}
	for w := range p.workers {
		if s := p.workers[w].shard; s != nil {
			s.Merge()
		}
	}
	return ingested, err
}

// IngestStream drains a crawl stream through a pool of cfg.Workers decode
// goroutines (default 2). When the Decoder is a ShardedDecoder (all three
// chains), each worker folds its blocks into a private shard — zero lock
// acquisitions on the hot path — and the shards merge into the aggregator
// in worker order once the stream drains; otherwise each worker
// batch-ingests under the aggregator lock, cfg.Batch blocks per
// acquisition. It returns the number of blocks ingested and the first
// decode/ingest error.
//
// Cancellation is driven by the stream itself: when ctx is cancelled the
// crawl workers stop and close the channel, and IngestStream keeps
// draining until then, so every block the stream delivered is in the
// partial aggregate it returns. On a decode/ingest error, by contrast, the
// pool stops receiving immediately; the caller must then cancel the
// stream's context to unblock crawl workers behind a full buffer
// (IngestCrawl does).
func IngestStream(ctx context.Context, blocks <-chan collect.Block, d Decoder, cfg IngestConfig) (int64, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2
	}
	pool := newIngestPool(d, workers, cfg.Batch)
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
			// Each worker folds its own remainder, so short streams (a
			// coordinator chunk is smaller than one batch per worker)
			// still aggregate in parallel.
			if err := pool.flush(w); err != nil {
				fail(err)
			}
		}(w)
	}
	wg.Wait()
	err, _ := firstErr.Load().(error)
	return pool.drain(err)
}

// PeriodicMerge wraps a sharded decoder so each ingest worker's private
// shard folds into the parent aggregator every `batches` IngestBatch calls
// instead of only at drain. Merge resets the source shard, so the worker
// keeps reusing it; between merges the hot path stays lock-free.
// This is the serving layer's ingest mode: the aggregator continuously
// absorbs epoch-sized deltas that SummarizeEOS and friends can snapshot
// mid-crawl, at a cost of one lock acquisition per worker per `batches`
// batches rather than one per worker per stream. A non-sharded decoder is
// returned unchanged (its locked batch path is already continuous).
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
// aggregator every `every` batches. Merge resets the inner shard, so it
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
// collect.Stream, drains it through IngestStream, and handles the
// cancel-on-ingest-error dance that unblocks crawl workers stalled on a
// full buffer. The pipeline stages, cmd/crawl and cmd/chainsim's
// self-check all run on it. The returned handle has finished: its Range is
// the block range the crawl resolved.
func IngestCrawl(ctx context.Context, f collect.BlockFetcher, ccfg collect.CrawlConfig, d Decoder, icfg IngestConfig) (collect.CrawlResult, *collect.CrawlHandle, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	blocks, handle := collect.Stream(ctx, f, ccfg)
	_, ierr := IngestStream(ctx, blocks, d, icfg)
	if ierr != nil {
		cancel() // unblock crawl workers stalled on a full buffer
	}
	res, cerr := handle.Wait()
	if ierr != nil {
		return res, handle, fmt.Errorf("%w: %w", ErrIngest, ierr)
	}
	return res, handle, cerr
}
