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
	"repro/internal/testkit"
)

// setAgg is the cheapest possible sharded "chain": a block decodes to its
// number and the aggregate is the multiset of numbers folded in, so a test
// can say exactly which blocks a cut saw. live counts the shards holding
// blocks not merged yet: the chunk states open right now; folded counts the
// blocks ingest workers have folded into shards. hold, when set, stalls
// every Decode until it is closed (see backlog).
type setAgg struct {
	mu     sync.Mutex
	nums   map[int64]int
	live   atomic.Int64
	folded atomic.Int64
	hold   chan struct{}
}

func newSetAgg() *setAgg { return &setAgg{nums: make(map[int64]int)} }

func (a *setAgg) Decode(num int64, raw []byte) (any, error) {
	if a.hold != nil {
		<-a.hold
	}
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
	s.agg.folded.Add(int64(len(batch)))
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

// backlog parks agg's ingest workers in Decode until f's crawl has come to
// rest against the stream's full buffer, then lets them go. An ingest
// worker folds its pending batch whenever the stream runs dry, which a
// stream of instant fetches does after nearly every block; only behind a
// backlog do its batches fill to ingestBatchSize.
func backlog(agg *setAgg, f *funcFetcher) {
	agg.hold = make(chan struct{})
	go func() {
		for n, still := int64(-1), 0; still < 3; time.Sleep(time.Millisecond) {
			if cur := f.fetches.Load(); cur == n {
				still++
			} else {
				n, still = cur, 0
			}
		}
		close(agg.hold)
	}()
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

// chunkLows lists the lowest block of each chunk of [from, to] in chunks
// of every, newest chunk first: the only places a cut may fall.
func chunkLows(from, to, every int64) []int64 {
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

// checkCuts reports whether cuts obey the cut contract over [from, to] in
// chunks of every: each on a chunk boundary, strictly descending, and —
// when the ingest finished — the last at from.
func checkCuts(cuts []int64, from, to, every int64, finished bool) error {
	lows := chunkLows(from, to, every)
	i := 0
	for _, lo := range cuts {
		for i < len(lows) && lows[i] > lo {
			i++
		}
		if i == len(lows) || lows[i] != lo {
			return fmt.Errorf("cut at %v: %d is not a chunk boundary below the cut before it (boundaries %v)", cuts, lo, lows)
		}
		i++
	}
	if finished && (len(cuts) == 0 || cuts[len(cuts)-1] != from) {
		return fmt.Errorf("cut at %v, want the last cut at %d", cuts, from)
	}
	return nil
}

// TestIngestChunksConsistentCut: whatever the fetch, ingest and chunk
// geometry, cuts fall on chunk boundaries, strictly descending, the last at
// From, and each time the aggregate is exactly [lo, To] — every block of
// the chunks cut so far, no block of a chunk still open. Where the range is
// one chunk and four ingest workers fold it, they start behind a backlog of
// 64 blocks, so at least one of them folds a full batch.
func TestIngestChunksConsistentCut(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const from, to = 4, 100 // 97 blocks: no chunk size below divides it
		n := int64(to - from + 1)
		for _, workers := range []int{1, 2, 4} {
			for _, ingest := range []int{1, 2, 4} {
				for _, every := range []int64{0, 1, 5, 16, n, n + 1} {
					t.Run(fmt.Sprintf("w%d-i%d-every%d", workers, ingest, every), func(t *testing.T) {
						agg := newSetAgg()
						f, buffer := newFuncFetcher(to, nil), 4
						if every == n && ingest == 4 {
							buffer = 64
							backlog(agg, f)
						}
						var cuts []int64
						res, err := IngestChunks(context.Background(), f,
							collect.CrawlConfig{From: from, To: to, Workers: workers, Buffer: buffer},
							agg, IngestConfig{Workers: ingest}, every,
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
						if err := checkCuts(cuts, from, to, every, true); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	})
}

// TestIngestChunksStalledBlock: one fetch hangs while every other returns
// at once. The crawl must neither deadlock (the test's timeout is the
// witness) nor open chunk states for everything the other fetch workers
// could have reached: the stream's window holds them, so with the crawl at
// rest behind the hung block the open states are what one window spans,
// however long the range is. Every cut stays consistent, and the cutter
// does not wait on the hung block to cut what is complete above it.
func TestIngestChunksStalledBlock(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const (
			to, every, stalled      = 4000, 4, 2500
			workers, buffer, ingest = 2, 8, 2
			window                  = buffer + 2*workers + 1
		)
		agg := newSetAgg()
		release := make(chan struct{})
		var (
			others, liveAtRest atomic.Int64
			mu                 sync.Mutex
			cuts               []int64
			cutAtRest          int64
		)
		f := newFuncFetcher(to, func(ctx context.Context, num int64) ([]byte, error) {
			if num == stalled {
				// Hold this block until nothing else moves: every block the
				// window admits has been asked for, folded and, if its chunk
				// was complete, cut.
				go func() {
					waitStable(func() int64 { return others.Load()<<16 + agg.live.Load() })
					liveAtRest.Store(agg.live.Load())
					mu.Lock()
					if len(cuts) > 0 {
						cutAtRest = cuts[len(cuts)-1]
					}
					mu.Unlock()
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

		_, err := IngestChunks(context.Background(), f,
			collect.CrawlConfig{From: 1, To: to, Workers: workers, Buffer: buffer},
			agg, IngestConfig{Workers: ingest}, every,
			func(lo int64) error {
				mu.Lock()
				cuts = append(cuts, lo)
				mu.Unlock()
				return agg.holdsExactly(lo, to)
			})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCuts(cuts, 1, to, every, true); err != nil {
			t.Fatal(err)
		}
		// At rest every chunk above the hung block's is complete, so the
		// cutter has cut down to that chunk's upper neighbour.
		if above := int64(to - (to-stalled)/every*every + 1); cutAtRest != above {
			t.Fatalf("with the crawl at rest behind block %d the lowest cut was %d, want %d: the cutter waited on the hung block", stalled, cutAtRest, above)
		}
		// Everything above the hung block's chunk is cut by then, and nothing
		// further than one window below it was fetched: ⌈W/every⌉+1 chunks.
		bound := int64(ingest * ((window+every-1)/every + 1))
		if got := liveAtRest.Load(); got > bound {
			t.Fatalf("%d shards open behind the hung block, want at most %d: chunk states grow with the range (%d chunks), not with the window", got, bound, to/every)
		}
	})
}

// TestIngestChunksSlowCut: a cut slower than the crawl (a remote store)
// makes the ingest wait for it instead of piling up complete chunks.
func TestIngestChunksSlowCut(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
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
	})
}

// TestIngestChunksHole: a block that exhausts its retries stops the crawl
// within one in-flight window, no cut reaches down to it, and the
// aggregate is left as the last cut saw it.
func TestIngestChunksHole(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
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
	})
}

// TestIngestChunksIngestError: an undecodable payload cancels the stream
// and comes back wrapped in ErrIngest.
func TestIngestChunksIngestError(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
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
	})
}

// TestIngestChunksInterrupted: cancelled mid-crawl, IngestChunks still cuts
// what it holds complete — on chunk boundaries, descending, each a
// consistent cut — before it returns, and reports the cancellation.
func TestIngestChunksInterrupted(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
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
		if len(cuts) < 3 || cuts[len(cuts)-1] == 1 {
			t.Fatalf("cut at %v: want the three before the cancel, what was already complete after it, and not the whole range", cuts)
		}
		if err := checkCuts(cuts, 1, to, every, false); err != nil {
			t.Fatal(err)
		}
		if err := agg.holdsExactly(cuts[len(cuts)-1], to); err != nil {
			t.Fatalf("after the interrupt: %v", err)
		}
	})
}

// holdUntil returns a fetch hook that holds block held back until gate
// closes (or the crawl's context ends) and serves every block as "ok".
func holdUntil(held int64, gate <-chan struct{}) func(context.Context, int64) ([]byte, error) {
	return func(ctx context.Context, num int64) ([]byte, error) {
		if num == held {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return []byte("ok"), nil
	}
}

// waitFolded returns once the ingest workers have folded n blocks into
// their shards and then kept still, so the cutter has heard of every one.
func waitFolded(agg *setAgg, n int64) {
	for agg.folded.Load() < n {
		time.Sleep(time.Millisecond)
	}
	waitStable(agg.folded.Load)
}

// TestIngestChunksCoalescesCompleteChunks: chunks that complete while a cut
// runs share the next cut. The first cut (the newest chunk: the top of the
// next one is held back until it starts) waits until the stream has
// delivered and folded everything, so the next call, and the last, is the
// single cut(From) — no cut per chunk trailing the crawl, and none above
// From that the consumer's final emit would replace. The newest chunk is
// folded from a backlog, so one of the two ingest workers fills a batch.
func TestIngestChunksCoalescesCompleteChunks(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		// 8 chunks: no more open than maxOpenChunks, so the workers never wait
		// on the cut that waits on them.
		const from, to, every = 3, 322, 40
		agg := newSetAgg()
		first := make(chan struct{})
		f := newFuncFetcher(to, holdUntil(to-every, first))
		backlog(agg, f)
		var cuts []int64
		_, err := IngestChunks(context.Background(), f,
			collect.CrawlConfig{From: from, To: to, Workers: 2, Buffer: 48},
			agg, IngestConfig{Workers: 2}, every,
			func(lo int64) error {
				if cuts = append(cuts, lo); len(cuts) == 1 {
					close(first)
					waitFolded(agg, to-from+1)
				}
				return agg.holdsExactly(lo, to)
			})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int64{to - every + 1, from}; fmt.Sprint(cuts) != fmt.Sprint(want) {
			t.Fatalf("cut at %v, want %v: the newest chunk, then everything that completed behind it at once", cuts, want)
		}
	})
}

// TestIngestChunksInterruptedCutsNewestComplete: cancelled while every
// block above a parked one is folded, IngestChunks cuts all the chunks
// complete by then as one cut, at the lowest complete chunk boundary,
// drops the partial chunk, and reports the cancellation. The newest chunk
// is folded from a backlog, so one of the two ingest workers fills a batch.
func TestIngestChunksInterruptedCutsNewestComplete(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const from, to, every, floor = 1, 320, 40, 58
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		agg := newSetAgg()
		first := make(chan struct{})
		var leaked atomic.Bool
		held := holdUntil(to-every, first)
		parked := parkBelow(floor, &leaked, func(int64) []byte { return []byte("ok") })
		f := newFuncFetcher(to, func(ctx context.Context, num int64) ([]byte, error) {
			if num < floor {
				return parked(ctx, num)
			}
			return held(ctx, num)
		})
		backlog(agg, f)
		var cuts []int64
		_, err := IngestChunks(ctx, f,
			collect.CrawlConfig{From: from, To: to, Workers: 2, Buffer: 48},
			agg, IngestConfig{Workers: 2}, every,
			func(lo int64) error {
				if cuts = append(cuts, lo); len(cuts) == 1 {
					close(first)
					waitFolded(agg, to-floor+1)
					cancel()
				}
				return agg.holdsExactly(lo, to)
			})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if leaked.Load() {
			t.Fatal("the parked fetches outlived the cancel")
		}
		// [58, 80] is folded, [41, 57] is not: chunk [41, 80] is dropped.
		if want := []int64{to - every + 1, 81}; fmt.Sprint(cuts) != fmt.Sprint(want) {
			t.Fatalf("cut at %v, want %v: the newest chunk, then every chunk complete at the cancel as one cut", cuts, want)
		}
		if err := agg.holdsExactly(81, to); err != nil {
			t.Fatalf("after the interrupt: %v", err)
		}
	})
}

// TestIngestChunksCutAllocatesNothing: the cutter merges and cuts runs of
// complete chunks without allocating — no per-cut list of the chunks it
// takes. Each cut completes the chunks the next run takes.
func TestIngestChunksCutAllocatesNothing(t *testing.T) {
	if testkit.Race {
		t.Skip("the race detector allocates")
	}
	const from, to, every, workers = 1, 40, 5, 2
	agg := newSetAgg()
	c := newChunkCutter(from, to, every, workers, agg)
	chunks := make([]*openChunk, c.chunks)
	for k := range chunks {
		chunks[k] = &openChunk{shards: []Shard{agg.NewShard(), agg.NewShard()}}
	}
	c.free = make([]Shard, 0, len(chunks)*workers)
	// Runs [0, 2], [3, 4] and [5, 7]: cuts at 26, 16 and from.
	completes := [][]int64{{3, 4}, {5, 6, 7}, nil}
	want := [3]int64{26, 16, from}
	var got [3]int64
	n := 0
	cut := func(lo int64) error {
		if n == len(got) {
			return fmt.Errorf("cut at %v, then at %d", got, lo)
		}
		got[n] = lo
		for _, k := range completes[n] {
			c.folded(k, 1)
		}
		n++
		return nil
	}
	run := func() {
		c.next, c.sealed, c.stopped, c.free, n = 0, true, false, c.free[:0], 0
		for k, ch := range chunks {
			ch.missing = 0
			if k > 2 {
				ch.missing = 1
			}
			c.open[int64(k)] = ch
		}
		if err := c.run(cut); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got != want || n != len(want) {
		t.Fatalf("cut at %v (%d cuts), want %v", got, n, want)
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("a run of cuts allocates %.1f times, want 0", allocs)
	}
}

// TestIngestChunksCutError: a failed cut (the store refused the
// checkpoint) stops the crawl and is what IngestChunks returns.
func TestIngestChunksCutError(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const to, every = 4000, 16
		refused := errors.New("store refused")
		// The range below the failed cut only ends if something cancels it.
		var leaked atomic.Bool
		park := parkBelow(to-500, &leaked, func(int64) []byte { return []byte("ok") })
		// Nothing past the first two chunks is fetched before the first cut
		// returns. A first cut that folds every complete chunk, as one
		// descheduled until the crawl reaches the parked range would, then
		// still leaves the second cut a chunk above that range.
		firstCut := make(chan struct{})
		f := newFuncFetcher(to, func(ctx context.Context, num int64) ([]byte, error) {
			if num <= to-2*every {
				select {
				case <-firstCut:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return park(ctx, num)
		})
		cuts := 0
		_, err := IngestChunks(context.Background(), f,
			collect.CrawlConfig{From: 1, To: to, Workers: 2, Buffer: 8},
			newSetAgg(), IngestConfig{Workers: 2}, every,
			func(int64) error {
				switch cuts++; cuts {
				case 1:
					close(firstCut)
				case 2:
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
	})
}

// TestIngestChunksRefusesBadInput: the decoder must shard and the range
// must be concrete before anything is fetched.
func TestIngestChunksRefusesBadInput(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		f := newFuncFetcher(10, nil)
		unsharded := lockedDecoder{newKit(t, "eos").Decoder}
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
	})
}

// TestIngestChunksSizesNothing: a chunked ingest — the shard worker's path —
// deflates no payload to size it, because no chunked consumer reports a
// footprint.
func TestIngestChunksSizesNothing(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const to = 64
		res, err := IngestChunks(context.Background(), newFuncFetcher(to, nil),
			collect.CrawlConfig{From: 1, To: to, Workers: 2}, newSetAgg(), IngestConfig{}, 16,
			func(int64) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if res.Blocks != to || res.RawBytes == 0 || res.GzipBytes != 0 {
			t.Fatalf("chunked ingest: blocks=%d raw=%d gzip=%d, want %d blocks, raw counted, no footprint", res.Blocks, res.RawBytes, res.GzipBytes, to)
		}
	})
}
