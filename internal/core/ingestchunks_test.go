package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collect"
)

// setAgg is the cheapest possible sharded "chain": a block decodes to its
// number and the aggregate is the multiset of numbers folded in, so a test
// can say exactly which blocks a cut saw. live counts the shards holding
// blocks not merged yet: the chunk states open right now.
type setAgg struct {
	mu   sync.Mutex
	nums map[int64]int
	live atomic.Int64
}

func newSetAgg() *setAgg { return &setAgg{nums: make(map[int64]int)} }

func (a *setAgg) Decode(num int64, raw []byte) (any, error) {
	if string(raw) == "bad" {
		return nil, fmt.Errorf("block %d is not a block", num)
	}
	return num, nil
}

func (a *setAgg) IngestBatch(batch []any) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, v := range batch {
		a.nums[v.(int64)]++
	}
	return nil
}

func (a *setAgg) NewShard() Shard { return &setShard{agg: a} }

// holdsExactly reports whether the aggregate is each block of [lo, hi] once
// and nothing else.
func (a *setAgg) holdsExactly(lo, hi int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if int64(len(a.nums)) != hi-lo+1 {
		return fmt.Errorf("aggregate holds %d blocks, want the %d of [%d, %d]", len(a.nums), hi-lo+1, lo, hi)
	}
	for num, n := range a.nums {
		if num < lo || num > hi || n != 1 {
			return fmt.Errorf("aggregate holds block %d %d time(s), want exactly [%d, %d] once each", num, n, lo, hi)
		}
	}
	return nil
}

type setShard struct {
	agg  *setAgg
	nums []int64
}

func (s *setShard) IngestBatch(batch []any) error {
	if len(s.nums) == 0 && len(batch) > 0 {
		s.agg.live.Add(1)
	}
	for _, v := range batch {
		s.nums = append(s.nums, v.(int64))
	}
	return nil
}

func (s *setShard) Merge() {
	if len(s.nums) > 0 {
		s.agg.live.Add(-1)
	}
	s.agg.mu.Lock()
	for _, num := range s.nums {
		s.agg.nums[num]++
	}
	s.agg.mu.Unlock()
	s.nums = s.nums[:0]
}

// funcFetcher serves blocks [1, head] through fetch, recording the lowest
// block ever requested.
type funcFetcher struct {
	head    int64
	fetch   func(ctx context.Context, num int64) ([]byte, error)
	fetches atomic.Int64
	lowest  atomic.Int64
}

func newFuncFetcher(head int64, fetch func(ctx context.Context, num int64) ([]byte, error)) *funcFetcher {
	f := &funcFetcher{head: head, fetch: fetch}
	f.lowest.Store(head + 1)
	return f
}

func (f *funcFetcher) Head(context.Context) (int64, error) { return f.head, nil }

func (f *funcFetcher) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	f.fetches.Add(1)
	for {
		low := f.lowest.Load()
		if num >= low || f.lowest.CompareAndSwap(low, num) {
			break
		}
	}
	if f.fetch != nil {
		return f.fetch(ctx, num)
	}
	return []byte("ok"), nil
}

// waitStable polls read until it has returned the same value five times
// running, 5 ms apart — the crawl behind it has come to rest — and returns
// that value.
func waitStable(read func() int64) int64 {
	last, stable := int64(-1), 0
	for stable < 5 {
		time.Sleep(5 * time.Millisecond)
		if cur := read(); cur == last {
			stable++
		} else {
			last, stable = cur, 0
		}
	}
	return last
}

// parkBelow returns a fetch hook under which every block below floor hangs
// until the crawl's context ends — what a cancelled stream looks like from
// the endpoint — and notes in leaked any that had to be let through after
// patience ran out because nothing cancelled it.
func parkBelow(floor int64, leaked *atomic.Bool, payload func(num int64) []byte) func(context.Context, int64) ([]byte, error) {
	return func(ctx context.Context, num int64) ([]byte, error) {
		if num < floor {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(10 * time.Second):
				leaked.Store(true)
			}
		}
		return payload(num), nil
	}
}

// wantCuts lists the lo each cut of [from, to] in chunks of every must be
// called with, in order.
func wantCuts(from, to, every int64) []int64 {
	if every <= 0 {
		every = to - from + 1
	}
	var los []int64
	for hi := to; hi >= from; hi -= every {
		lo := hi - every + 1
		if lo < from {
			lo = from
		}
		los = append(los, lo)
	}
	return los
}

// TestIngestChunksConsistentCut: whatever the fetch, ingest and chunk
// geometry, cut runs once per chunk, newest first, and each time the
// aggregate is exactly [lo, To] — every block of the chunks cut so far, no
// block of a chunk still open.
func TestIngestChunksConsistentCut(t *testing.T) {
	const from, to = 4, 100 // 97 blocks: no chunk size below divides it
	n := int64(to - from + 1)
	for _, workers := range []int{1, 2, 4} {
		for _, ingest := range []int{1, 2, 4} {
			for _, every := range []int64{0, 1, 5, 16, n, n + 1} {
				t.Run(fmt.Sprintf("w%d-i%d-every%d", workers, ingest, every), func(t *testing.T) {
					agg := newSetAgg()
					var cuts []int64
					res, err := IngestChunks(context.Background(), newFuncFetcher(to, nil),
						collect.CrawlConfig{From: from, To: to, Workers: workers, Buffer: 4},
						agg, IngestConfig{Workers: ingest, Batch: 3}, every,
						func(lo int64) error {
							cuts = append(cuts, lo)
							return agg.holdsExactly(lo, to)
						})
					if err != nil {
						t.Fatal(err)
					}
					if res.Blocks != n {
						t.Fatalf("crawled %d blocks, want %d", res.Blocks, n)
					}
					if want := wantCuts(from, to, every); fmt.Sprint(cuts) != fmt.Sprint(want) {
						t.Fatalf("cut at %v, want %v", cuts, want)
					}
				})
			}
		}
	}
}

// TestIngestChunksStalledBlock: one fetch hangs while every other returns
// at once. The crawl must neither deadlock (the test's timeout is the
// witness) nor open chunk states for everything the other fetch workers
// could have reached: the stream's window holds them, so with the crawl at
// rest behind the hung block the open states are what one window spans,
// however long the range is.
func TestIngestChunksStalledBlock(t *testing.T) {
	const (
		to, every, stalled      = 4000, 4, 2500
		workers, buffer, ingest = 2, 8, 2
		window                  = buffer + 2*workers + 1
	)
	agg := newSetAgg()
	release := make(chan struct{})
	var others, liveAtRest atomic.Int64
	f := newFuncFetcher(to, func(ctx context.Context, num int64) ([]byte, error) {
		if num == stalled {
			// Hold this block until nothing else moves: every block the
			// window admits has been asked for, folded and, if its chunk
			// was complete, cut.
			go func() {
				waitStable(func() int64 { return others.Load()<<16 + agg.live.Load() })
				liveAtRest.Store(agg.live.Load())
				close(release)
			}()
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		} else {
			others.Add(1)
		}
		return []byte("ok"), nil
	})

	var cuts int
	_, err := IngestChunks(context.Background(), f,
		collect.CrawlConfig{From: 1, To: to, Workers: workers, Buffer: buffer},
		agg, IngestConfig{Workers: ingest}, every,
		func(lo int64) error {
			cuts++
			return agg.holdsExactly(lo, to)
		})
	if err != nil {
		t.Fatal(err)
	}
	if cuts != to/every {
		t.Fatalf("%d cuts, want %d", cuts, to/every)
	}
	// Everything above the hung block's chunk is cut by then, and nothing
	// further than one window below it was fetched: ⌈W/every⌉+1 chunks.
	bound := int64(ingest * ((window+every-1)/every + 1))
	if got := liveAtRest.Load(); got > bound {
		t.Fatalf("%d shards open behind the hung block, want at most %d: chunk states grow with the range (%d chunks), not with the window", got, bound, to/every)
	}
}

// TestIngestChunksSlowCut: a cut slower than the crawl (a remote store)
// makes the ingest wait for it instead of piling up complete chunks.
func TestIngestChunksSlowCut(t *testing.T) {
	const (
		to, every               = 4000, 4
		workers, buffer, ingest = 2, 8, 2
	)
	f := newFuncFetcher(to, nil)
	agg := newSetAgg()
	first := true
	_, err := IngestChunks(context.Background(), f,
		collect.CrawlConfig{From: 1, To: to, Workers: workers, Buffer: buffer},
		agg, IngestConfig{Workers: ingest}, every,
		func(lo int64) error {
			if !first {
				return nil
			}
			first = false
			// Hold the first cut until the crawl has stopped moving.
			before := f.fetches.Load()
			last := waitStable(f.fetches.Load)
			// Open chunks, then whatever is in flight between the stream's
			// window and the ingest workers' batches.
			if most := int64((maxOpenChunks+ingest+1)*every + 2*(buffer+2*workers+1) + 16*ingest); last-before > most {
				return fmt.Errorf("%d blocks fetched behind a stalled cut, want at most %d", last-before, most)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.holdsExactly(1, to); err != nil {
		t.Fatal(err)
	}
}

// TestIngestChunksHole: a block that exhausts its retries stops the crawl
// within one in-flight window, no cut reaches down to it, and the
// aggregate is left as the last cut saw it.
func TestIngestChunksHole(t *testing.T) {
	const (
		to, every, hole         = 4000, 16, 3000
		workers, buffer, ingest = 4, 8, 2
		window                  = buffer + 2*workers + 1
	)
	f := newFuncFetcher(to, func(_ context.Context, num int64) ([]byte, error) {
		if num == hole {
			return nil, errors.New("gone")
		}
		return []byte("ok"), nil
	})
	agg := newSetAgg()
	lowestCut := int64(to + 1)
	_, err := IngestChunks(context.Background(), f,
		collect.CrawlConfig{From: 1, To: to, Workers: workers, Buffer: buffer, MaxRetries: 1, Backoff: time.Microsecond},
		agg, IngestConfig{Workers: ingest}, every,
		func(lo int64) error {
			lowestCut = lo
			return agg.holdsExactly(lo, to)
		})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("block %d failed", hole)) {
		t.Fatalf("err = %v, want the failed block's", err)
	}
	if errors.Is(err, ErrIngest) {
		t.Fatalf("a fetch failure came back as an ingest failure: %v", err)
	}
	if lowestCut <= hole {
		t.Fatalf("cut down to %d, at or below the hole at %d", lowestCut, hole)
	}
	if low := f.lowest.Load(); low <= hole-window {
		t.Fatalf("block %d fetched, more than one window (%d) below the hole at %d", low, window, hole)
	}
	if err := agg.holdsExactly(lowestCut, to); err != nil {
		t.Fatalf("after the failure: %v", err)
	}
}

// TestIngestChunksIngestError: an undecodable payload cancels the stream
// and comes back wrapped in ErrIngest.
func TestIngestChunksIngestError(t *testing.T) {
	const to, bad = 4000, 3900
	// The range below the bad block only ends if something cancels it.
	var leaked atomic.Bool
	f := newFuncFetcher(to, parkBelow(bad-500, &leaked, func(num int64) []byte {
		if num == bad {
			return []byte("bad")
		}
		return []byte("ok")
	}))
	agg := newSetAgg()
	_, err := IngestChunks(context.Background(), f,
		collect.CrawlConfig{From: 1, To: to, Workers: 2, Buffer: 8},
		agg, IngestConfig{Workers: 2}, 16,
		func(lo int64) error {
			if lo <= bad {
				return fmt.Errorf("cut down to %d, past the undecodable block %d", lo, bad)
			}
			return nil
		})
	if !errors.Is(err, ErrIngest) {
		t.Fatalf("err = %v, want ErrIngest", err)
	}
	if leaked.Load() {
		t.Fatal("the stream was not cancelled when ingestion failed")
	}
}

// TestIngestChunksInterrupted: cancelled mid-crawl, IngestChunks still cuts
// every chunk it holds complete — in order, each a consistent cut — before
// it returns, and reports the cancellation.
func TestIngestChunksInterrupted(t *testing.T) {
	const to, every = 4000, 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agg := newSetAgg()
	var cuts []int64
	_, err := IngestChunks(ctx, newFuncFetcher(to, nil),
		collect.CrawlConfig{From: 1, To: to, Workers: 2, Buffer: 8},
		agg, IngestConfig{Workers: 2}, every,
		func(lo int64) error {
			cuts = append(cuts, lo)
			if len(cuts) == 3 {
				cancel()
			}
			return agg.holdsExactly(lo, to)
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(cuts) < 3 || len(cuts) == to/every {
		t.Fatalf("%d cuts: want the three before the cancel, any already complete after it, and not the whole range", len(cuts))
	}
	if want := wantCuts(1, to, every)[:len(cuts)]; fmt.Sprint(cuts) != fmt.Sprint(want) {
		t.Fatalf("cut at %v, want the prefix %v", cuts, want)
	}
	if err := agg.holdsExactly(cuts[len(cuts)-1], to); err != nil {
		t.Fatalf("after the interrupt: %v", err)
	}
}

// TestIngestChunksCutError: a failed cut (the store refused the
// checkpoint) stops the crawl and is what IngestChunks returns.
func TestIngestChunksCutError(t *testing.T) {
	const to = 4000
	refused := errors.New("store refused")
	// The range below the failed cut only ends if something cancels it.
	var leaked atomic.Bool
	f := newFuncFetcher(to, parkBelow(to-500, &leaked, func(int64) []byte { return []byte("ok") }))
	cuts := 0
	_, err := IngestChunks(context.Background(), f,
		collect.CrawlConfig{From: 1, To: to, Workers: 2, Buffer: 8},
		newSetAgg(), IngestConfig{Workers: 2}, 16,
		func(int64) error {
			if cuts++; cuts == 2 {
				return refused
			}
			return nil
		})
	if !errors.Is(err, refused) {
		t.Fatalf("err = %v, want the cut's", err)
	}
	if cuts != 2 {
		t.Fatalf("%d cuts, want none after the one that failed", cuts)
	}
	if leaked.Load() {
		t.Fatal("the stream was not cancelled when the cut failed")
	}
}

// TestIngestChunksRefusesBadInput: the decoder must shard and the range
// must be concrete before anything is fetched.
func TestIngestChunksRefusesBadInput(t *testing.T) {
	f := newFuncFetcher(10, nil)
	unsharded := lockedDecoder{NewEOSAggregator(time.Unix(0, 0), time.Hour).Decoder()}
	if _, err := IngestChunks(context.Background(), f, collect.CrawlConfig{From: 1, To: 10}, unsharded, IngestConfig{}, 4, nil); err == nil {
		t.Error("a decoder without shards was accepted")
	}
	for _, r := range [][2]int64{{1, 0}, {0, 10}, {7, 3}} {
		if _, err := IngestChunks(context.Background(), f, collect.CrawlConfig{From: r[0], To: r[1]}, newSetAgg(), IngestConfig{}, 4, nil); err == nil {
			t.Errorf("range [%d, %d] was accepted", r[0], r[1])
		}
	}
	if n := f.fetches.Load(); n != 0 {
		t.Errorf("%d blocks fetched for refused input", n)
	}
}
