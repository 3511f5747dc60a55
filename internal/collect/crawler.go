package collect

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/retry"
)

// BlockFetcher abstracts one chain endpoint for the crawler.
type BlockFetcher interface {
	// Head returns the newest block identifier.
	Head(ctx context.Context) (int64, error)
	// FetchBlock returns one block's raw JSON by number.
	FetchBlock(ctx context.Context, num int64) ([]byte, error)
}

// CrawlConfig parameterizes a crawl.
type CrawlConfig struct {
	// From and To bound the inclusive block range. When To is zero the
	// crawler starts at the endpoint's head — the paper began "from the
	// most recent block" and walked backwards.
	From, To int64
	// Workers is the number of concurrent fetchers.
	Workers int
	// MaxRetries bounds per-block retry attempts.
	MaxRetries int
	// Backoff is the base retry delay (doubled per attempt).
	Backoff time.Duration
	// Pool, when set, bounds this crawl's in-flight fetches together with
	// every other crawl sharing the pool. Workers still sets the shard
	// count; the pool gates the actual fetch attempts.
	Pool *Pool
	// Buffer is the stream channel capacity (default 64): how many teed
	// blocks may wait for the consumer. It sets the backpressure bound — a
	// stalled consumer stops the fetch side with at most
	// Buffer + 2·Workers + 1 payloads in flight: Buffer delivered but
	// unread, one in each worker's hand, one per worker parked in the
	// hand-off to the tee stage, and the one the stage holds. The same
	// number is how far, in block positions, any fetch worker may run
	// ahead of the newest block not yet delivered: a worker in retry
	// backoff holds the others to one such window, so a wider Buffer also
	// buys more slack around a slow block.
	Buffer int
	// Tee, when set, receives every fetched block immediately before it is
	// handed to the stream — the hook archive sinks attach to. One stage
	// goroutine per stream calls it, off the fetch workers, so calls never
	// overlap within a crawl and its cost (an archive's deflate) runs beside
	// the next fetches instead of between them. It must not keep raw after
	// it returns (the buffer is recycled once the consumer releases the
	// block). A Tee error aborts the whole crawl (surfaced wrapped in
	// ErrTee), and the failing block is not delivered.
	// Because the tee lands before delivery, a crawl cancelled between the
	// two may tee a block it never delivers. That is harmless to an archive
	// sink: a rerun serves the block from the archive and ingests it then
	// (see archive.Crawl).
	//
	// A nil Tee is no tee: the stream deflates nothing. Whoever keeps the
	// bytes deflates them, once — an archive tee, or the sizer
	// core.IngestCrawl tees into when its caller sets none.
	Tee func(num int64, raw []byte) error
}

// CrawlResult summarizes a finished crawl.
type CrawlResult struct {
	Blocks   int64
	Failed   int64
	RawBytes int64
	// GzipBytes is Figure 2's footprint of a tee-less crawl: the
	// gzip-compressed size of every payload delivered, set by
	// core.IngestCrawl. A stream never sets it.
	GzipBytes int64
	Elapsed   time.Duration
	Retries   int64
}

// retryPolicy maps a CrawlConfig onto the shared retry policy: MaxRetries
// extra attempts after the first, doubling backoff with full jitter, and a
// keep-trying classifier — a crawl retries every fetch error (endpoints
// misbehave in ways no static list predicts; Do itself stops when the
// caller's context ends). Rate-limit errors carry a RetryAfter hint the
// policy honours over its own schedule.
func (cfg CrawlConfig) retryPolicy() retry.Policy {
	attempts := cfg.MaxRetries + 1
	if attempts < 1 {
		attempts = 1
	}
	return retry.Policy{
		Attempts:  attempts,
		Base:      cfg.Backoff,
		Retryable: func(error) bool { return true },
	}
}

// resolveHead retries the head request with backoff: probe bursts may have
// momentarily drained an endpoint's rate-limit bucket.
func resolveHead(ctx context.Context, f BlockFetcher, cfg CrawlConfig) (int64, error) {
	var head int64
	err := cfg.retryPolicy().Do(ctx, "", func(ctx context.Context) error {
		h, err := f.Head(ctx)
		if err == nil {
			head = h
		}
		return err
	})
	var ex *retry.ExhaustedError
	if errors.As(err, &ex) {
		err = ex.Err
	}
	return head, err
}

func fetchWithRetry(ctx context.Context, f BlockFetcher, num int64, cfg CrawlConfig, retries *int64) ([]byte, error) {
	var raw []byte
	p := cfg.retryPolicy()
	p.OnRetry = func(int, error, time.Duration) { atomic.AddInt64(retries, 1) }
	err := p.Do(ctx, "", func(ctx context.Context) error {
		b, err := fetchOnce(ctx, f, num, cfg.Pool)
		if err == nil {
			raw = b
		}
		return err
	})
	if err != nil {
		var ex *retry.ExhaustedError
		if errors.As(err, &ex) {
			return nil, fmt.Errorf("collect: block %d failed after %d retries: %w", num, cfg.MaxRetries, ex.Err)
		}
		return nil, err
	}
	return raw, nil
}

// fetchOnce performs a single fetch attempt, holding a shared pool slot
// (when configured) only for the duration of the request so backoff sleeps
// between attempts never block other crawls.
func fetchOnce(ctx context.Context, f BlockFetcher, num int64, pool *Pool) ([]byte, error) {
	if pool != nil {
		if err := pool.acquire(ctx); err != nil {
			return nil, err
		}
		defer pool.release()
	}
	return f.FetchBlock(ctx, num)
}
