package collect

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Block is one fetched payload flowing through a crawl stream: the raw wire
// bytes, still undecoded, so crawl workers never pay decode or aggregation
// cost. Decoding happens downstream (see core.IngestCrawl, whose workers
// fold decoded blocks into private mergeable shards — any stream consumer
// may therefore take blocks from this channel concurrently without
// coordinating beyond the channel itself).
//
// Release recycles the payload buffer once the consumer has extracted
// everything it needs. After Release, Raw is nil and the consumer must hold
// no view into the old bytes (decoded structs are safe: the wire codecs
// copy every string they keep). Release is a no-op for blocks whose fetcher
// did not declare raw ownership, so legacy sinks and test fetchers that
// share buffers stay correct.
type Block struct {
	Num int64
	Raw []byte
	// pooled marks Raw as exclusively owned and recyclable (set by Stream
	// when the fetcher implements RawRecycler).
	pooled bool
}

// putRaw recycles a payload buffer; a variable so tests can witness which
// buffers come back.
var putRaw = wire.PutRaw

// Release returns the payload buffer to the recycling pool. Safe to call
// multiple times; only the first has effect.
func (b *Block) Release() {
	if b.pooled && b.Raw != nil {
		putRaw(b.Raw)
	}
	b.Raw = nil
	b.pooled = false
}

// RawRecycler is implemented by BlockFetchers whose FetchBlock results are
// exclusively owned by the caller — each returned slice has no other
// holder, so the stream may recycle it through wire.PutRaw after the
// consumer calls Block.Release. The repo's chain clients and the archive
// reader all qualify; fetchers that replay shared buffers must not.
type RawRecycler interface {
	OwnsRaw() bool
}

// ErrTee marks a crawl failure that came from the CrawlConfig.Tee hook
// rather than fetching: the crawl stopped because its sink did (disk full,
// torn archive directory), not because an endpoint misbehaved.
var ErrTee = errors.New("collect: tee failed")

// CrawlHandle tracks a streaming crawl: the final CrawlResult, once the
// stream closes.
type CrawlHandle struct {
	res      CrawlResult
	err      error
	finished chan struct{}
}

// Wait blocks until the crawl finishes (the stream channel is closed first)
// and returns its result. A cancelled crawl reports ctx's error alongside
// the partial result.
func (h *CrawlHandle) Wait() (CrawlResult, error) {
	<-h.finished
	return h.res, h.err
}

// Stream starts a crawl whose fetched blocks flow through the returned
// bounded channel (capacity CrawlConfig.Buffer). Fetch workers hand each
// payload to one tee-and-deliver stage, which runs CrawlConfig.Tee, if set,
// and sends the Block on; the stage blocks once the buffer fills and the
// workers behind it, so a slow consumer exerts real backpressure on the
// fetch side instead of stalling inside a callback.
// The channel is closed when the crawl finishes, fails, or ctx is
// cancelled — after the workers and the stage have exited; then
// CrawlHandle.Wait returns the CrawlResult.
//
// Blocks arrive in roughly, not exactly, descending order: workers own
// strides of the range and one may sit in retry backoff while the others
// go on. How far they go on is bounded — no block is fetched more than
// Buffer + 2·Workers + 1 positions below the newest block still
// undelivered — so a consumer that keys state by block number holds state
// for one such window, not for the whole range.
//
// A block that exhausts its retries is counted in CrawlResult.Failed and
// skipped: the rest of the range still flows (an archive tee keeps
// everything that can be had) and Wait reports the first such error.
func Stream(ctx context.Context, f BlockFetcher, cfg CrawlConfig) (<-chan Block, *CrawlHandle) {
	return stream(ctx, f, cfg, false)
}

// StreamGapless is Stream for a consumer whose result is worthless with a
// block missing: the first block to exhaust its retries aborts the crawl,
// as a tee failure does, instead of being counted and skipped. No block
// more than one in-flight window below the hole is fetched, the channel
// closes, and Wait returns the failed block's error.
func StreamGapless(ctx context.Context, f BlockFetcher, cfg CrawlConfig) (<-chan Block, *CrawlHandle) {
	return stream(ctx, f, cfg, true)
}

func stream(ctx context.Context, f BlockFetcher, cfg CrawlConfig, gapless bool) (<-chan Block, *CrawlHandle) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 64
	}
	out := make(chan Block, cfg.Buffer)
	h := &CrawlHandle{finished: make(chan struct{})}
	go h.run(ctx, f, cfg, gapless, out)
	return out, h
}

func (h *CrawlHandle) run(parent context.Context, f BlockFetcher, cfg CrawlConfig, gapless bool, out chan<- Block) {
	// abort stops the whole crawl from inside: fetches in flight are
	// cancelled and workers parked on the window wake. The parent's own
	// cancellation arrives the same way.
	ctx, abort := context.WithCancel(parent)
	defer abort()
	start := time.Now()
	finish := func(err error) {
		h.res.Elapsed = time.Since(start)
		h.err = err
		close(out)
		close(h.finished)
	}

	if cfg.To == 0 {
		head, err := resolveHead(ctx, f, cfg)
		if err != nil {
			finish(fmt.Errorf("collect: resolving head: %w", err))
			return
		}
		cfg.To = head
	}
	if cfg.From <= 0 {
		cfg.From = 1
	}
	if cfg.From > cfg.To {
		finish(fmt.Errorf("collect: empty range [%d, %d]", cfg.From, cfg.To))
		return
	}

	// A nil Tee is no tee: a stream moves bytes and never deflates them.
	tee := cfg.Tee
	if tee == nil {
		tee = func(int64, []byte) error { return nil }
	}
	// Payload buffers recycle only when the fetcher guarantees exclusive
	// ownership of what FetchBlock returns.
	var recycle bool
	if rr, ok := f.(RawRecycler); ok {
		recycle = rr.OwnsRaw()
	}
	// firstErr must not be an atomic.Value: the error concrete types vary
	// (wrapped fetch errors vs. ErrTee-joined tee errors), and
	// atomic.Value.CompareAndSwap panics on inconsistently typed values.
	var firstErr onceError
	win := newWindow(cfg.Buffer + 2*cfg.Workers + 1)

	// Fetching and teeing are pipelined: workers hand fetched blocks to one
	// tee-and-deliver stage, so the tee's deflate of block n overlaps the
	// fetches of n+1… instead of running on the fetch worker. The hand-off
	// holds one block per worker — each worker can park a block and go
	// straight back to the socket (an unbuffered hand-off makes a lone
	// worker, XRP's WebSocket, alternate a round trip with a deflate). The
	// stage receives until the channel closes, so a worker's send can never
	// strand; once the crawl is aborted it only releases what it is handed.
	staged := make(chan Block, cfg.Workers)
	stageDone := make(chan struct{})
	go func() {
		defer close(stageDone)
		for b := range staged {
			if ctx.Err() != nil {
				b.Release()
				continue
			}
			// The tee must see the payload before delivery: once the
			// consumer has the Block it may Release the buffer back to
			// the pool at any moment.
			if err := tee(b.Num, b.Raw); err != nil {
				// A failed tee (disk full, torn archive directory) is not
				// a per-block condition like a fetch error: every later
				// block would fail the same way, so the whole crawl stops.
				b.Release()
				firstErr.set(fmt.Errorf("%w: block %d: %w", ErrTee, b.Num, err))
				abort()
				continue
			}
			select {
			case out <- b:
				atomic.AddInt64(&h.res.Blocks, 1)
				atomic.AddInt64(&h.res.RawBytes, int64(len(b.Raw)))
				win.resolve(cfg.To - b.Num)
			case <-ctx.Done():
				b.Release()
			}
		}
	}()

	// Reverse chronological order, sharded by stride: worker k owns
	// To-k, To-k-Workers, … down to From.
	var wg sync.WaitGroup
	stride := int64(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(offset int64) {
			defer wg.Done()
			for num := cfg.To - offset; num >= cfg.From; num -= stride {
				if !win.admit(ctx, cfg.To-num) {
					return
				}
				raw, err := fetchWithRetry(ctx, f, num, cfg, &h.res.Retries)
				if err != nil {
					atomic.AddInt64(&h.res.Failed, 1)
					firstErr.set(err)
					if gapless {
						abort()
						return
					}
					win.resolve(cfg.To - num)
					continue
				}
				staged <- Block{Num: num, Raw: raw, pooled: recycle}
			}
		}(int64(w))
	}
	wg.Wait()
	close(staged)
	<-stageDone

	err := firstErr.get()
	if err == nil {
		err = parent.Err()
	}
	finish(err)
}

// window holds a stream's fetch workers to within size positions of the
// oldest position (To − num) still unresolved — neither delivered nor
// given up on. Without it stride sharding lets every worker but one run
// through the whole range while that one sits in retry backoff.
type window struct {
	mu   sync.Mutex
	done []bool // ring over positions [low, low+len(done))
	low  int64  // oldest unresolved position
	// moved is closed, and replaced, when low advances past a parked
	// worker's reach; nil while nobody is parked.
	moved chan struct{}
}

func newWindow(size int) *window { return &window{done: make([]bool, size)} }

// admit parks the caller until pos is inside the window, and reports false
// when ctx ended first.
func (w *window) admit(ctx context.Context, pos int64) bool {
	if ctx.Err() != nil {
		return false
	}
	w.mu.Lock()
	for pos >= w.low+int64(len(w.done)) {
		if w.moved == nil {
			w.moved = make(chan struct{})
		}
		moved := w.moved
		w.mu.Unlock()
		select {
		case <-moved:
		case <-ctx.Done():
			return false
		}
		w.mu.Lock()
	}
	w.mu.Unlock()
	return true
}

// resolve marks pos delivered or given up on, sliding the window past
// every resolved position at its old end.
func (w *window) resolve(pos int64) {
	size := int64(len(w.done))
	w.mu.Lock()
	w.done[pos%size] = true
	if pos == w.low {
		// Each visited slot is cleared, so the walk ends within one lap.
		for w.done[w.low%size] {
			w.done[w.low%size] = false
			w.low++
		}
		if w.moved != nil {
			close(w.moved)
			w.moved = nil
		}
	}
	w.mu.Unlock()
}

// onceError keeps the first error set, under a mutex so error values of
// any concrete type can race to report.
type onceError struct {
	mu  sync.Mutex
	err error
}

func (o *onceError) set(err error) {
	o.mu.Lock()
	if o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
}

func (o *onceError) get() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}
