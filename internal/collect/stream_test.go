package collect

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testkit"
)

// memFetcher serves synthetic blocks from memory and records every fetch so
// tests can assert exactly which blocks were requested. Block numbers in
// fail always error, simulating a permanently broken block.
type memFetcher struct {
	blocks  int64
	latency time.Duration
	fail    map[int64]bool

	mu      sync.Mutex
	fetched map[int64]int
	total   int64
}

func newMemFetcher(blocks int64, latency time.Duration) *memFetcher {
	return &memFetcher{blocks: blocks, latency: latency, fetched: make(map[int64]int)}
}

func (f *memFetcher) Head(ctx context.Context) (int64, error) { return f.blocks, nil }

func (f *memFetcher) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	if num < 1 || num > f.blocks {
		return nil, fmt.Errorf("memFetcher: no block %d", num)
	}
	if f.latency > 0 {
		select {
		case <-time.After(f.latency):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f.mu.Lock()
	f.fetched[num]++
	f.total++
	f.mu.Unlock()
	if f.fail[num] {
		return nil, fmt.Errorf("memFetcher: block %d is broken", num)
	}
	return []byte(fmt.Sprintf(`{"num":%d}`, num)), nil
}

func (f *memFetcher) totalFetches() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// waitQuiescent polls until the fetch count stops moving — the fetch side
// has stalled against a consumer that reads nothing — and returns it.
func (f *memFetcher) waitQuiescent(t *testing.T) int64 {
	t.Helper()
	last, stableFor := int64(-1), 0
	for i := 0; i < 200 && stableFor < 5; i++ {
		time.Sleep(10 * time.Millisecond)
		cur := f.totalFetches()
		if cur == last {
			stableFor++
		} else {
			stableFor = 0
		}
		last = cur
	}
	if stableFor < 5 {
		t.Fatal("fetch count never went quiescent against a stalled consumer")
	}
	return last
}

// owningFetcher is a memFetcher whose payloads are exclusively the caller's
// (RawRecycler), remembering every buffer it handed out by the address of
// its first byte.
type owningFetcher struct {
	*memFetcher
	mu     sync.Mutex
	handed map[*byte]int64
}

func (f *owningFetcher) OwnsRaw() bool { return true }

func (f *owningFetcher) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	raw, err := f.memFetcher.FetchBlock(ctx, num)
	if err == nil {
		f.mu.Lock()
		f.handed[&raw[0]] = num
		f.mu.Unlock()
	}
	return raw, err
}

func (f *memFetcher) fetchedNums() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	nums := make([]int64, 0, len(f.fetched))
	for n := range f.fetched {
		nums = append(nums, n)
	}
	return nums
}

// TestStreamBackpressure: a stalled consumer must stop the fetch side after
// at most Buffer buffered blocks, one in-hand block per worker, one parked
// block per worker in the hand-off, and the one the tee stage holds.
func TestStreamBackpressure(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const workers, buffer, total = 4, 8, 100
		f := newMemFetcher(total, 0)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		blocks, h := Stream(ctx, f, CrawlConfig{Workers: workers, Buffer: buffer})
		if cap(blocks) != buffer {
			t.Fatalf("stream buffer = %d, want %d", cap(blocks), buffer)
		}

		// Consume nothing; wait for the fetch count to go quiescent.
		last := f.waitQuiescent(t)
		if bound := int64(buffer + 2*workers + 1); last > bound {
			t.Fatalf("stalled consumer let %d fetches through, want <= %d (buffer %d + 2 x workers %d + 1)",
				last, bound, buffer, workers)
		}
		if last < buffer {
			t.Fatalf("only %d fetches before stall, want at least the buffer (%d)", last, buffer)
		}

		// Unstall: the crawl must finish and deliver everything exactly once.
		seen := make(map[int64]bool)
		for blk := range blocks {
			if seen[blk.Num] {
				t.Fatalf("block %d delivered twice", blk.Num)
			}
			seen[blk.Num] = true
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Blocks != total || len(seen) != total {
			t.Fatalf("blocks = %d, delivered %d, want %d", res.Blocks, len(seen), total)
		}
	})
}

// TestStreamCancellationDrains: cancelling mid-stream must close the
// channel, surface ctx's error from Wait, and leak no goroutines.
func TestStreamCancellationDrains(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		before := runtime.NumGoroutine()

		f := newMemFetcher(500, time.Millisecond)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		blocks, h := Stream(ctx, f, CrawlConfig{Workers: 4, Buffer: 4})
		received := 0
		for range blocks {
			received++
			if received == 20 {
				cancel()
			}
		}
		res, err := h.Wait()
		if err == nil {
			t.Fatal("cancelled stream reported success")
		}
		if res.Blocks < 20 {
			t.Fatalf("res.Blocks = %d, want >= 20 delivered before cancel", res.Blocks)
		}

		// All crawl goroutines must unwind.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("goroutines leaked: %d before stream, %d after drain", before, runtime.NumGoroutine())
	})
}

// TestStreamTeeSeesEveryDeliveredBlock: the tee must observe exactly the
// delivered set — no gaps (the archive would silently short-count) — each
// block once and before the consumer can have it. A stream never sizes what
// it moves, teed or not: CrawlResult.GzipBytes is core.IngestCrawl's to set.
func TestStreamTeeSeesEveryDeliveredBlock(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const total = 60
		f := newMemFetcher(total, 0)
		var mu sync.Mutex
		teed := make(map[int64]int)
		blocks, h := Stream(context.Background(), f, CrawlConfig{
			Workers: 4, Buffer: 8,
			Tee: func(num int64, raw []byte) error {
				mu.Lock()
				teed[num]++
				mu.Unlock()
				if want := fmt.Sprintf(`{"num":%d}`, num); string(raw) != want {
					return fmt.Errorf("tee got %s for block %d", raw, num)
				}
				return nil
			},
		})
		delivered := 0
		for b := range blocks {
			delivered++
			mu.Lock()
			n := teed[b.Num]
			mu.Unlock()
			if n != 1 {
				t.Fatalf("block %d delivered after %d tee calls, want exactly 1 before delivery", b.Num, n)
			}
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if delivered != total || len(teed) != total {
			t.Fatalf("delivered %d, teed %d distinct, want %d", delivered, len(teed), total)
		}
		for num, n := range teed {
			if n != 1 {
				t.Fatalf("block %d teed %d times in an uninterrupted crawl", num, n)
			}
		}
		if res.GzipBytes != 0 || res.RawBytes == 0 {
			t.Fatalf("teed crawl: gzip=%d raw=%d, want no footprint and raw counted", res.GzipBytes, res.RawBytes)
		}

		// Without a tee nothing runs on the stage but delivery: same crawl, same
		// bytes moved, still no footprint.
		plain, err := crawl(context.Background(), newMemFetcher(total, 0), CrawlConfig{Workers: 4},
			func(int64, []byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if plain.RawBytes != res.RawBytes || plain.GzipBytes != 0 {
			t.Fatalf("tee-less crawl: gzip=%d raw=%d, want no footprint and raw=%d", plain.GzipBytes, plain.RawBytes, res.RawBytes)
		}
	})
}

// TestStreamTeeErrorAbortsCrawl: a failing tee (disk full, torn archive)
// must stop the whole crawl with its error, and the failing block must not
// be delivered — the archive never kept it, so a rerun has to refetch it.
func TestStreamTeeErrorAbortsCrawl(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const total = 200
		f := newMemFetcher(total, 0)
		var calls, failed int64
		blocks, h := Stream(context.Background(), f, CrawlConfig{
			Workers: 4, Buffer: 8,
			Tee: func(num int64, raw []byte) error {
				if atomic.AddInt64(&calls, 1) == 10 {
					atomic.StoreInt64(&failed, num)
					return fmt.Errorf("disk full")
				}
				return nil
			},
		})
		delivered := make(map[int64]bool)
		for b := range blocks {
			delivered[b.Num] = true
		}
		res, err := h.Wait()
		if err == nil {
			t.Fatal("crawl with a failing tee reported success")
		}
		if !errors.Is(err, ErrTee) {
			t.Fatalf("tee failure not marked ErrTee: %v", err)
		}
		if !strings.Contains(err.Error(), "disk full") {
			t.Fatalf("tee failure cause not surfaced: %v", err)
		}
		if got := atomic.LoadInt64(&calls); got > total/2 {
			t.Fatalf("crawl kept fetching long after the tee failed (%d tee calls)", got)
		}
		if len(delivered) == total {
			t.Fatal("every block was delivered although the tee aborted the crawl")
		}
		if num := atomic.LoadInt64(&failed); delivered[num] {
			t.Fatalf("block %d failed its tee but was delivered", num)
		}
		if res.Blocks != int64(len(delivered)) {
			t.Fatalf("result counts %d blocks, consumer saw %d", res.Blocks, len(delivered))
		}
	})
}

// TestStreamTeeIsSerial: one stage per stream calls the tee, so however many
// workers fetch, no two tee calls overlap — and the tee still sees every
// delivered block exactly once, before the consumer does.
func TestStreamTeeIsSerial(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const total = 300
		var inTee, overlaps atomic.Int64
		var mu sync.Mutex
		teed := make(map[int64]int)
		blocks, h := Stream(context.Background(), newMemFetcher(total, 0), CrawlConfig{
			Workers: 8, Buffer: 4,
			Tee: func(num int64, raw []byte) error {
				if inTee.Add(1) > 1 {
					overlaps.Add(1)
				}
				mu.Lock()
				teed[num]++
				mu.Unlock()
				runtime.Gosched() // give a second caller every chance to show up
				inTee.Add(-1)
				return nil
			},
		})
		delivered := 0
		for b := range blocks {
			delivered++
			mu.Lock()
			n := teed[b.Num]
			mu.Unlock()
			if n != 1 {
				t.Fatalf("block %d delivered after %d tee calls, want exactly 1", b.Num, n)
			}
		}
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		if n := overlaps.Load(); n != 0 {
			t.Fatalf("%d tee calls began while another was running", n)
		}
		if delivered != total || len(teed) != total {
			t.Fatalf("delivered %d, teed %d distinct, want %d", delivered, len(teed), total)
		}
	})
}

// TestStreamCancelWithStalledConsumer: with the consumer reading nothing and
// every slot between socket and consumer full, cancelling must still let
// Wait return, and every payload that was fetched but never delivered must
// go back to the buffer pool exactly once — from the worker's hand, the
// hand-off and the stage alike — while delivered payloads stay the
// consumer's.
func TestStreamCancelWithStalledConsumer(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const workers, buffer = 4, 2
		var mu sync.Mutex
		recycled := make(map[*byte]int)
		orig := putRaw
		putRaw = func(raw []byte) {
			mu.Lock()
			recycled[&raw[0]]++
			mu.Unlock()
		}
		defer func() { putRaw = orig }()

		f := &owningFetcher{memFetcher: newMemFetcher(100, 0), handed: make(map[*byte]int64)}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		blocks, h := Stream(ctx, f, CrawlConfig{Workers: workers, Buffer: buffer})
		fetched := f.waitQuiescent(t)
		cancel()

		type waited struct {
			res CrawlResult
			err error
		}
		done := make(chan waited, 1)
		go func() {
			res, err := h.Wait()
			done <- waited{res, err}
		}()
		var w waited
		select {
		case w = <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Wait never returned after cancel with a stalled consumer")
		}
		if !errors.Is(w.err, context.Canceled) {
			t.Fatalf("Wait returned %v, want context.Canceled", w.err)
		}

		// What the stream buffered before the cancel still belongs to the
		// consumer; everything else the fetcher handed out must have come back.
		delivered := make(map[*byte]bool)
		for b := range blocks {
			delivered[&b.Raw[0]] = true
		}
		if int64(len(delivered)) != w.res.Blocks {
			t.Fatalf("result counts %d blocks, channel held %d", w.res.Blocks, len(delivered))
		}
		if int64(len(f.handed)) != fetched || len(delivered) == len(f.handed) {
			t.Fatalf("fetched %d, handed %d, delivered %d: nothing was in flight to drop", fetched, len(f.handed), len(delivered))
		}
		mu.Lock()
		defer mu.Unlock()
		for buf, num := range f.handed {
			want := 1
			if delivered[buf] {
				want = 0
			}
			if recycled[buf] != want {
				t.Errorf("block %d (delivered=%v) recycled %d times, want %d", num, delivered[buf], recycled[buf], want)
			}
		}
	})
}

// TestStreamTeeErrorAfterFetchError: a fetch error and a tee error racing
// to report must coexist — the error capture has to accept error values of
// different concrete types without panicking (atomic.Value would not).
func TestStreamTeeErrorAfterFetchError(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const total = 100
		f := newMemFetcher(total, 0)
		f.fail = map[int64]bool{total: true} // newest block fails first
		var calls int64
		blocks, h := Stream(context.Background(), f, CrawlConfig{
			Workers: 2, Buffer: 4, MaxRetries: 1, Backoff: time.Microsecond,
			Tee: func(num int64, raw []byte) error {
				if atomic.AddInt64(&calls, 1) >= 20 {
					return fmt.Errorf("disk full")
				}
				return nil
			},
		})
		for range blocks {
		}
		if _, err := h.Wait(); err == nil {
			t.Fatal("crawl with fetch and tee failures reported success")
		}
	})
}

// TestCrawlAdapterMatchesStream: the tests' callback drain must report the
// same accounting as the stream it wraps.
func TestCrawlAdapterMatchesStream(t *testing.T) {
	f := newMemFetcher(40, 0)
	var delivered int64
	res, err := crawl(context.Background(), f, CrawlConfig{Workers: 3}, func(num int64, raw []byte) error {
		atomic.AddInt64(&delivered, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 40 || delivered != 40 {
		t.Fatalf("blocks=%d delivered=%d, want 40/40", res.Blocks, delivered)
	}
}

// stallFetcher is a memFetcher that holds one block back until every other
// block the stream may fetch meanwhile has been requested, and remembers
// whether anything beyond that was requested too.
type stallFetcher struct {
	*memFetcher
	stalled int64 // the block held back
	reach   int64 // lowest block the window admits while stalled is unresolved
	others  int64 // how many other blocks the window admits meanwhile

	release  chan struct{}
	seen     atomic.Int64
	overshot atomic.Int64 // lowest block requested below reach before the release, 0 if none
}

func newStallFetcher(total, stalled int64, workers, window int) *stallFetcher {
	f := &stallFetcher{memFetcher: newMemFetcher(total, 0), stalled: stalled, release: make(chan struct{})}
	f.reach = stalled - int64(window) + 1
	if f.reach < 1 {
		f.reach = 1
	}
	// Everything above the stalled block gets fetched, and of the window
	// below it what is not in the stuck worker's own stride.
	for num := total; num >= f.reach; num-- {
		if num > stalled || (stalled-num)%int64(workers) != 0 {
			f.others++
		}
	}
	return f
}

func (f *stallFetcher) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	if num == f.stalled {
		select {
		case <-f.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return f.memFetcher.FetchBlock(ctx, num)
	}
	select {
	case <-f.release:
	default:
		if num < f.reach {
			f.overshot.Store(num)
		}
	}
	raw, err := f.memFetcher.FetchBlock(ctx, num)
	if f.seen.Add(1) == f.others {
		close(f.release)
	}
	return raw, err
}

// TestStreamWindowHoldsRunaways: with one fetch stuck (a worker deep in
// retry backoff) the other workers may run at most one in-flight window
// ahead of it — not through the whole range, as bare stride sharding would
// let them — and the crawl still completes once the straggler lands.
func TestStreamWindowHoldsRunaways(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const workers, buffer, total = 4, 8, 400
		window := buffer + 2*workers + 1
		for _, stalled := range []int64{total, total - 3, 200, 5} {
			t.Run(fmt.Sprint("block", stalled), func(t *testing.T) {
				f := newStallFetcher(total, stalled, workers, window)
				blocks, h := Stream(context.Background(), f, CrawlConfig{Workers: workers, Buffer: buffer})
				var delivered int64
				for blk := range blocks {
					delivered++
					blk.Release()
				}
				res, err := h.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if res.Blocks != total || delivered != total {
					t.Fatalf("blocks = %d, delivered %d, want %d", res.Blocks, delivered, total)
				}
				if num := f.overshot.Load(); num != 0 {
					t.Fatalf("block %d fetched while block %d was still undelivered: more than the window (%d) below it", num, stalled, window)
				}
			})
		}
	})
}

// TestStreamGaplessStopsAtHole: a block that exhausts its retries ends a
// gapless stream within one in-flight window — nothing further down is
// fetched, the channel closes, Wait names the block — where a plain stream
// counts it and delivers the rest.
func TestStreamGaplessStopsAtHole(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const workers, buffer, total, hole = 4, 8, 400, 300
		window := int64(buffer + 2*workers + 1)
		cfg := CrawlConfig{Workers: workers, Buffer: buffer, MaxRetries: 1, Backoff: time.Microsecond}

		f := newMemFetcher(total, 0)
		f.fail = map[int64]bool{hole: true}
		blocks, h := StreamGapless(context.Background(), f, cfg)
		for blk := range blocks {
			if blk.Num == hole {
				t.Errorf("the failed block %d was delivered", hole)
			}
			blk.Release()
		}
		res, err := h.Wait()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("block %d failed", hole)) {
			t.Fatalf("Wait = %v, want the failed block's error", err)
		}
		if res.Failed < 1 {
			t.Fatalf("Failed = %d, want the hole counted", res.Failed)
		}
		f.mu.Lock()
		for num := range f.fetched {
			if num <= hole-window {
				t.Errorf("block %d fetched, more than one window (%d) below the hole at %d", num, window, hole)
			}
		}
		f.mu.Unlock()

		f = newMemFetcher(total, 0)
		f.fail = map[int64]bool{hole: true}
		blocks, h = Stream(context.Background(), f, cfg)
		for blk := range blocks {
			blk.Release()
		}
		res, err = h.Wait()
		if err == nil || res.Failed != 1 || res.Blocks != total-1 {
			t.Fatalf("plain stream: %d blocks, %d failed, err %v; want %d, 1 and the hole's error", res.Blocks, res.Failed, err, total-1)
		}
	})
}
