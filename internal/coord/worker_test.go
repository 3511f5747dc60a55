package coord

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/testkit"
	"repro/internal/wire"
)

// chainFixture is one chain's slice of synthetic blocks served from
// memory: every block differs from its neighbours, so the aggregate of any
// two different ranges renders differently.
type chainFixture struct {
	chain string
	raws  map[int64][]byte
}

func newChainFixture(chainName string, from, to int64) *chainFixture {
	fx := &chainFixture{chain: chainName, raws: make(map[int64][]byte)}
	actors := []string{"alice", "bob", "carol", "dave", "erin"}
	c := wire.NewCodec()
	for num := from; num <= to; num++ {
		ts := chain.ObservationStart.Add(time.Duration(num) * 95 * time.Minute)
		a, b := actors[num%5], actors[(num/5+1+num%5)%5]
		switch chainName {
		case "eos":
			blk := wire.EOSBlockJSON{BlockNum: uint32(num), Timestamp: ts.Format(wire.EOSTimestampLayout), Producer: "eosio"}
			for j := int64(0); j <= num%3; j++ {
				var trx wire.EOSTrxJSON
				trx.Status = "executed"
				trx.Trx.Transaction.Actions = []wire.EOSActionJSON{{
					Account: "eosio.token", Name: "transfer",
					Authorization: []map[string]string{{"actor": a}},
					Data:          map[string]string{"from": a, "to": b, "quantity": fmt.Sprintf("%d.%04d EOS", num, j)},
				}}
				blk.Transactions = append(blk.Transactions, trx)
			}
			fx.raws[num] = c.AppendEOSBlock(nil, &blk)
		case "tezos":
			blk := wire.TezosBlockJSON{Level: num, Timestamp: ts.Format(time.RFC3339), Baker: "tz1" + b}
			blk.Operations = append(blk.Operations,
				wire.TezosOperationJSON{Kind: "endorsement", Source: "tz1" + a, Level: num - 1, SlotCount: int(1 + num%4)},
				wire.TezosOperationJSON{Kind: "transaction", Source: "tz1" + a, Destination: "tz1" + b, Amount: num * 1000})
			if num%4 == 0 {
				blk.Operations = append(blk.Operations, wire.TezosOperationJSON{Kind: "ballot", Source: "tz1" + b, Proposal: "PsBabyM1", Ballot: "yay", Rolls: num})
			}
			fx.raws[num] = c.AppendTezosBlock(nil, &blk)
		case "xrp":
			l := wire.XRPLedgerJSON{LedgerIndex: num, CloseTime: ts.Format(time.RFC3339)}
			l.Transactions = append(l.Transactions, wire.XRPTxJSON{
				Hash: fmt.Sprintf("PAY%06d", num), TransactionType: "Payment",
				Account: "r" + a, Destination: "r" + b, DestinationTag: uint32(num % 7),
				Sequence: uint32(num), Result: "tesSUCCESS",
				Amount: &wire.XRPAmountJSON{Currency: "XRP", Value: num * 1_000_000},
			})
			if num%3 == 0 {
				l.Transactions = append(l.Transactions, wire.XRPTxJSON{
					Hash: fmt.Sprintf("OFF%06d", num), TransactionType: "OfferCreate",
					Account: "r" + b, Sequence: uint32(1000 + num), Result: "tecUNFUNDED_OFFER",
				})
			}
			l.TxCount = len(l.Transactions)
			fx.raws[num] = append(c.AppendXRPLedger([]byte(`{"ledger":`), &l), '}')
		}
	}
	return fx
}

func (fx *chainFixture) kit(t testing.TB) core.StatsKit {
	t.Helper()
	kit, err := core.NewStatsKit(fx.chain, chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return kit
}

// suffixRenders ingests [from, to] serially in one process, newest block
// first, and returns the figures of every suffix [lo, to] by lo — what a
// checkpoint covering exactly that suffix must render.
func (fx *chainFixture) suffixRenders(t testing.TB, from, to int64) map[int64]string {
	t.Helper()
	kit := fx.kit(t)
	renders := make(map[int64]string)
	for num := to; num >= from; num-- {
		blk, err := kit.Decoder.Decode(num, fx.raws[num])
		if err != nil {
			t.Fatalf("%s block %d: %v", fx.chain, num, err)
		}
		batch := []any{blk}
		if err := kit.Decoder.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		kit.Decoder.(core.BatchReleaser).ReleaseBatch(batch)
		renders[num] = kit.Summarize().Render()
		if num < to && renders[num] == renders[num+1] {
			t.Fatalf("%s block %d does not show in the figures: the fixture cannot tell [%d, %d] from [%d, %d]", fx.chain, num, num, to, num+1, to)
		}
	}
	return renders
}

// hookFetcher serves a chainFixture, counting fetches per block; before,
// when set, runs first and may hold the fetch back or fail it.
type hookFetcher struct {
	fx     *chainFixture
	before func(ctx context.Context, num int64) error

	mu      sync.Mutex
	fetched map[int64]int
}

func (fx *chainFixture) fetcher(before func(ctx context.Context, num int64) error) *hookFetcher {
	return &hookFetcher{fx: fx, before: before, fetched: make(map[int64]int)}
}

func (f *hookFetcher) Head(context.Context) (int64, error) {
	return 0, errors.New("a shard worker never resolves head")
}

func (f *hookFetcher) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	f.mu.Lock()
	f.fetched[num]++
	f.mu.Unlock()
	if f.before != nil {
		if err := f.before(ctx, num); err != nil {
			return nil, err
		}
	}
	raw, ok := f.fx.raws[num]
	if !ok {
		return nil, fmt.Errorf("no block %d", num)
	}
	return raw, nil
}

// lowest returns the lowest block number ever requested.
func (f *hookFetcher) lowest() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	low := int64(-1)
	for num := range f.fetched {
		if low < 0 || num < low {
			low = num
		}
	}
	return low
}

// recordingStore remembers every write, in order.
type recordingStore struct {
	blobstore.Store
	mu  sync.Mutex
	ops []storeOp
}

type storeOp struct {
	op, key string
	data    []byte
}

func (s *recordingStore) Put(ctx context.Context, key string, data []byte) error {
	if err := s.Store.Put(ctx, key, data); err != nil {
		return err
	}
	s.mu.Lock()
	s.ops = append(s.ops, storeOp{blobstore.OpPut, key, append([]byte(nil), data...)})
	s.mu.Unlock()
	return nil
}

func (s *recordingStore) Delete(ctx context.Context, key string) error {
	if err := s.Store.Delete(ctx, key); err != nil {
		return err
	}
	s.mu.Lock()
	s.ops = append(s.ops, storeOp{blobstore.OpDelete, key, nil})
	s.mu.Unlock()
	return nil
}

// chunkLows lists the lowest block of each chunk of [from, to], newest
// chunk first.
func chunkLows(from, to, every int64) []int64 {
	if every <= 0 {
		every = to - from + 1
	}
	var lows []int64
	for hi := to; hi >= from; hi -= every {
		lows = append(lows, max(hi-every+1, from))
	}
	return lows
}

// checkCheckpoints checks the checkpoints a worker over [from, to] in chunks
// of every wrote, in order, against the checkpoint contract: each covers
// [lo, to] for a chunk boundary lo above from, lower than the one before,
// and decodes to exactly the aggregate want[lo] renders. It returns the
// ranges they cover.
func checkCheckpoints(t *testing.T, ckpts [][]byte, from, to, every int64, want map[int64]string) []core.BlockRange {
	t.Helper()
	lows := chunkLows(from, to, every)
	lows = lows[:len(lows)-1] // the last chunk ends in the shard, not a checkpoint
	var covs []core.BlockRange
	i := 0
	for n, raw := range ckpts {
		st, err := core.DecodeShard(raw)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", n+1, err)
		}
		cov := st.Covered()
		for i < len(lows) && lows[i] > cov.From {
			i++
		}
		if cov.To != to || i == len(lows) || lows[i] != cov.From {
			t.Fatalf("checkpoint %d covers %s, want [lo, %d] for a chunk boundary lo in %v below the checkpoint before (%v)", n+1, cov, to, lows, covs)
		}
		i++
		if got := st.Summary().Render(); got != want[cov.From] {
			t.Fatalf("checkpoint %d is not the aggregate of %s:\n--- got ---\n%s--- want ---\n%s", n+1, cov, got, want[cov.From])
		}
		covs = append(covs, cov)
	}
	return covs
}

// chunkGate holds each chunk's fetches until a checkpoint reaching down to
// the chunk above it has landed, so no chunk completes while the one above
// it is cut: a worker writes exactly one checkpoint per chunk but the last,
// whatever the crawl's pace against its checkpointer. Tests that stop a
// worker after its k-th checkpoint need that many to exist.
type chunkGate struct {
	to, every int64

	mu     sync.Mutex
	landed int64         // lowest block a landed checkpoint covers
	wake   chan struct{} // closed, and replaced, at each landing
}

func newChunkGate(to, every int64) *chunkGate {
	return &chunkGate{to: to, every: every, landed: to + 1, wake: make(chan struct{})}
}

// before is a fetch hook: it holds num until the checkpoint covering the
// chunk above num's has landed (or ctx ends).
func (g *chunkGate) before(ctx context.Context, num int64) error {
	above := g.to - (g.to-num)/g.every*g.every + 1 // lowest block of the chunk above num's
	for {
		g.mu.Lock()
		landed, wake := g.landed, g.wake
		g.mu.Unlock()
		if landed <= above {
			return nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// fetcher gates f's fetches.
func (g *chunkGate) fetcher(f collect.BlockFetcher) collect.BlockFetcher {
	return gatedFetcher{f, g}
}

type gatedFetcher struct {
	collect.BlockFetcher
	gate *chunkGate
}

func (f gatedFetcher) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	if err := f.gate.before(ctx, num); err != nil {
		return nil, err
	}
	return f.BlockFetcher.FetchBlock(ctx, num)
}

// after is an AfterCheckpoint hook, run before then's (if any).
func (g *chunkGate) after(then func(core.BlockRange)) func(core.BlockRange) {
	return func(cov core.BlockRange) {
		g.mu.Lock()
		g.landed = min(g.landed, cov.From)
		close(g.wake)
		g.wake = make(chan struct{})
		g.mu.Unlock()
		if then != nil {
			then(cov)
		}
	}
}

// TestRunShardCrawlCheckpointContract pins what a worker's store sees, for
// every chain and every shape of pipeline: checkpoints in order, on chunk
// boundaries above From, each reaching lower than the last and each a
// consistent cut — it decodes to exactly the aggregate a serial ingest of
// [lo, To] builds, no block of a later chunk inside — then the shard, then
// the checkpoint's removal if one was written. A slice of one chunk writes
// no checkpoint and so removes none.
func TestRunShardCrawlCheckpointContract(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const from, to = 4, 40
		n := int64(to - from + 1)
		for _, chainName := range []string{"eos", "tezos", "xrp"} {
			fx := newChainFixture(chainName, from, to)
			want := fx.suffixRenders(t, from, to)
			ckptKey := CheckpointKey(chainName, from, to)
			for _, workers := range []int{1, 2, 4} {
				for _, ingest := range []int{1, 2, 4} {
					for _, every := range []int64{1, 5, 16, n, n + 1} {
						t.Run(fmt.Sprintf("%s-w%d-i%d-every%d", chainName, workers, ingest, every), func(t *testing.T) {
							store := &recordingStore{Store: blobstore.NewMemory()}
							var hooked []core.BlockRange
							out, err := RunShardCrawl(context.Background(), CrawlerConfig{
								Kit: fx.kit(t), Fetcher: fx.fetcher(nil),
								From: from, To: to, Store: store,
								CheckpointEvery: every,
								Workers:         workers, Ingest: ingest, Buffer: 4,
								AfterCheckpoint: func(cov core.BlockRange) { hooked = append(hooked, cov) },
							})
							if err != nil {
								t.Fatal(err)
							}
							if out.Blocks != n {
								t.Fatalf("crawled %d blocks, want %d", out.Blocks, n)
							}
							var ckpts [][]byte
							for _, op := range store.ops {
								if op.op != blobstore.OpPut || op.key != ckptKey {
									break
								}
								ckpts = append(ckpts, op.data)
							}
							covs := checkCheckpoints(t, ckpts, from, to, every, want)
							if every >= n && len(covs) > 0 {
								t.Fatalf("a one-chunk slice wrote checkpoints %v", covs)
							}
							if fmt.Sprint(hooked) != fmt.Sprint(covs) {
								t.Fatalf("AfterCheckpoint saw %v, want the checkpoints' %v", hooked, covs)
							}
							wantOps := len(ckpts) + 1
							if len(ckpts) > 0 {
								wantOps++
							}
							if len(store.ops) != wantOps {
								t.Fatalf("writes %v, want %d checkpoints, the shard and, after a checkpoint, its removal", opKeys(store.ops), len(ckpts))
							}
							shard := store.ops[len(ckpts)]
							if shard.op != blobstore.OpPut || shard.key != out.ShardKey || !strings.HasSuffix(shard.key, ".shard") {
								t.Fatalf("after the checkpoints came %s %s, want the shard put", shard.op, shard.key)
							}
							if len(ckpts) > 0 {
								if removal := store.ops[len(ckpts)+1]; removal.op != blobstore.OpDelete || removal.key != ckptKey {
									t.Fatalf("last write is %s %s, want the checkpoint's removal", removal.op, removal.key)
								}
							}
							st, err := core.DecodeShard(shard.data)
							if err != nil {
								t.Fatal(err)
							}
							if got := st.Summary().Render(); got != want[from] {
								t.Fatalf("shard differs from a serial ingest of the slice:\n--- got ---\n%s--- want ---\n%s", got, want[from])
							}
						})
					}
				}
			}
		}
	})
}

func opKeys(ops []storeOp) []string {
	keys := make([]string, len(ops))
	for i, op := range ops {
		keys[i] = op.op + " " + op.key
	}
	return keys
}

// foldCounter wraps a kit's decoder and counts the blocks its shards fold;
// hold, when set, runs before each block's decode and may hold it back.
type foldCounter struct {
	core.Decoder
	folded atomic.Int64
	hold   func(num int64)
}

func (d *foldCounter) Decode(num int64, raw []byte) (any, error) {
	if d.hold != nil {
		d.hold(num)
	}
	return d.Decoder.Decode(num, raw)
}

func (d *foldCounter) NewShard() core.Shard {
	return countedShard{d.Decoder.(core.ShardedDecoder).NewShard(), &d.folded}
}

func (d *foldCounter) ReleaseBatch(batch []any) { d.Decoder.(core.BatchReleaser).ReleaseBatch(batch) }

type countedShard struct {
	core.Shard
	folded *atomic.Int64
}

func (s countedShard) IngestBatch(batch []any) error {
	err := s.Shard.IngestBatch(batch)
	s.folded.Add(int64(len(batch)))
	return err
}

// TestRunShardCrawlDeletesOnlyWhatExists: a finished worker deletes its
// checkpoint only if it resumed from one or wrote one. A slice whose chunks
// all completed before its first cut writes none and so sends no Delete;
// a checkpointed slice and a resumed one send exactly one, last.
func TestRunShardCrawlDeletesOnlyWhatExists(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const from, to, every = 1, 12, 4
		fx := newChainFixture("tezos", from, to)
		ckptKey := CheckpointKey("tezos", from, to)
		// Fetch and ingest pools small enough that one stream window (8 + 2·2
		// + 1 blocks) spans the slice.
		cfg := func(kit core.StatsKit, store blobstore.Store, before func(context.Context, int64) error) CrawlerConfig {
			return CrawlerConfig{
				Kit: kit, Fetcher: fx.fetcher(before), From: from, To: to, Store: store,
				CheckpointEvery: every, Workers: 2, Ingest: 2, Buffer: 8,
			}
		}
		deletes := func(store *recordingStore) (n int, last bool) {
			for i, op := range store.ops {
				if op.op == blobstore.OpDelete {
					if op.key != ckptKey {
						t.Fatalf("deleted %s, want only %s", op.key, ckptKey)
					}
					n, last = n+1, i == len(store.ops)-1
				}
			}
			return n, last
		}

		t.Run("all complete before the first cut", func(t *testing.T) {
			kit := fx.kit(t)
			counter := &foldCounter{Decoder: kit.Decoder}
			// The newest block is decoded last: its chunk, the first to cut,
			// completes only once the other ingest worker has folded all it
			// can — every block outside that chunk — and has kept still.
			counter.hold = func(num int64) {
				if num != to {
					return
				}
				last, stable := int64(-1), 0
				for deadline := time.Now().Add(10 * time.Second); stable < 5 && time.Now().Before(deadline); {
					time.Sleep(5 * time.Millisecond)
					if cur := counter.folded.Load(); cur == last && cur >= to-from+1-every {
						stable++
					} else {
						last, stable = cur, 0
					}
				}
			}
			kit.Decoder = counter
			store := &recordingStore{Store: blobstore.NewMemory()}
			if _, err := RunShardCrawl(context.Background(), cfg(kit, store, nil)); err != nil {
				t.Fatal(err)
			}
			if len(store.ops) != 1 {
				t.Fatalf("writes %v, want only the shard: no checkpoint, so nothing to delete", opKeys(store.ops))
			}
		})

		t.Run("checkpointed", func(t *testing.T) {
			gate := newChunkGate(to, every)
			store := &recordingStore{Store: blobstore.NewMemory()}
			c := cfg(fx.kit(t), store, gate.before)
			c.AfterCheckpoint = gate.after(nil)
			if _, err := RunShardCrawl(context.Background(), c); err != nil {
				t.Fatal(err)
			}
			if n, last := deletes(store); n != 1 || !last {
				t.Fatalf("writes %v, want the checkpoints, the shard, then one Delete", opKeys(store.ops))
			}
		})

		t.Run("resumed", func(t *testing.T) {
			mem := blobstore.NewMemory()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			gate := newChunkGate(to, every)
			killed := cfg(fx.kit(t), mem, gate.before)
			killed.AfterCheckpoint = gate.after(cancelAfterCheckpoint(1, cancel, nil))
			if _, err := RunShardCrawl(ctx, killed); err == nil {
				t.Fatal("interrupted worker reported success")
			}
			// The rerun's rest of the slice is one chunk: it writes no
			// checkpoint of its own, only resumes from the one it found.
			store := &recordingStore{Store: mem}
			rerun := cfg(fx.kit(t), store, nil)
			rerun.CheckpointEvery = 0
			out, err := RunShardCrawl(context.Background(), rerun)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Resumed.Known() {
				t.Fatal("the rerun did not resume")
			}
			if n, last := deletes(store); len(store.ops) != 2 || n != 1 || !last {
				t.Fatalf("writes %v, want the shard, then one Delete", opKeys(store.ops))
			}
		})
	})
}

// TestRunShardCrawlStalledBlock: one block's fetch hangs while every other
// returns at once — a fetch worker deep in backoff. The slice must
// complete (no deadlock: the test's timeout is the witness) with every
// checkpoint still a consistent cut, and the chunks complete above the
// hung block checkpointed while it hangs.
func TestRunShardCrawlStalledBlock(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const from, to, every, stalled = 1, 120, 4, 77
		fx := newChainFixture("tezos", from, to)
		want := fx.suffixRenders(t, from, to)

		release := make(chan struct{})
		var f *hookFetcher
		f = fx.fetcher(func(ctx context.Context, num int64) error {
			if num != stalled {
				return nil
			}
			// Hold the block until nothing else is being fetched.
			go func() {
				last, stable := -1, 0
				for stable < 5 {
					time.Sleep(5 * time.Millisecond)
					f.mu.Lock()
					cur := len(f.fetched)
					f.mu.Unlock()
					if cur == last {
						stable++
					} else {
						last, stable = cur, 0
					}
				}
				close(release)
			}()
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		store := &recordingStore{Store: blobstore.NewMemory()}
		_, err := RunShardCrawl(context.Background(), CrawlerConfig{
			Kit: fx.kit(t), Fetcher: f, From: from, To: to, Store: store,
			CheckpointEvery: every, Workers: 2, Ingest: 2, Buffer: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		var ckpts [][]byte
		for _, op := range store.ops {
			if op.op == blobstore.OpPut && strings.HasPrefix(op.key, "ckpt/") {
				ckpts = append(ckpts, op.data)
			}
		}
		if covs := checkCheckpoints(t, ckpts, from, to, every, want); len(covs) == 0 || covs[0].From <= stalled {
			t.Fatalf("checkpoints %v, want the first above the hung block %d: chunks complete above it wait for it", covs, stalled)
		}
	})
}

// TestRunShardCrawlFailedBlock: a block that exhausts its retries fails the
// worker within one in-flight window, leaves no checkpoint reaching down to
// the hole, and a rerun against a healed endpoint resumes from what was
// left and matches the oracle.
func TestRunShardCrawlFailedBlock(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const from, to, every, hole = 1, 200, 8, 120
		const workers, buffer = 2, 8
		window := int64(buffer + 2*workers + 1)
		fx := newChainFixture("eos", from, to)
		want := fx.suffixRenders(t, from, to)
		store := blobstore.NewMemory()
		cfg := func(f collect.BlockFetcher) CrawlerConfig {
			return CrawlerConfig{
				Kit: fx.kit(t), Fetcher: f, From: from, To: to, Store: store,
				CheckpointEvery: every, Workers: workers, Ingest: 2, Buffer: buffer,
				MaxRetries: 1, Backoff: time.Microsecond,
			}
		}

		broken := fx.fetcher(func(_ context.Context, num int64) error {
			if num == hole {
				return errors.New("pruned")
			}
			return nil
		})
		_, err := RunShardCrawl(context.Background(), cfg(broken))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("block %d failed", hole)) {
			t.Fatalf("err = %v, want block %d's failure", err, hole)
		}
		if low := broken.lowest(); low <= hole-window {
			t.Fatalf("block %d fetched, more than one window (%d) below the hole at %d", low, window, hole)
		}
		raw, err := store.Get(context.Background(), CheckpointKey("eos", from, to))
		if err != nil {
			t.Fatalf("the chunks above the hole left no checkpoint: %v", err)
		}
		ckpt, err := core.DecodeShard(raw)
		if err != nil {
			t.Fatal(err)
		}
		cov := ckpt.Covered()
		if cov.To != to || cov.From <= hole {
			t.Fatalf("surviving checkpoint covers %s, want a suffix of [%d, %d] strictly above the hole at %d", cov, from, to, hole)
		}
		if got := ckpt.Summary().Render(); got != want[cov.From] {
			t.Fatalf("surviving checkpoint is not the aggregate of %s", cov)
		}

		healed := fx.fetcher(nil)
		out, err := RunShardCrawl(context.Background(), cfg(healed))
		if err != nil {
			t.Fatalf("rerun: %v", err)
		}
		if out.Resumed != cov {
			t.Fatalf("rerun resumed from %s, want the surviving checkpoint's %s", out.Resumed, cov)
		}
		for num := range healed.fetched {
			if num >= cov.From {
				t.Fatalf("rerun refetched block %d, inside the checkpoint's %s", num, cov)
			}
		}
		raw, err = store.Get(context.Background(), out.ShardKey)
		if err != nil {
			t.Fatal(err)
		}
		st, err := core.DecodeShard(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Summary().Render(); got != want[from] {
			t.Errorf("shard after the rerun differs from the oracle:\n--- got ---\n%s--- want ---\n%s", got, want[from])
		}
	})
}

// TestRunShardCrawlIngestError: a payload the decoder refuses stops the
// worker with core.ErrIngest, and no checkpoint covers the refused block.
func TestRunShardCrawlIngestError(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const from, to, bad = 1, 200, 150
		fx := newChainFixture("eos", from, to)
		fx.raws[bad] = []byte(`{"block_num": "not a block"`)
		store := blobstore.NewMemory()
		f := fx.fetcher(nil)
		_, err := RunShardCrawl(context.Background(), CrawlerConfig{
			Kit: fx.kit(t), Fetcher: f, From: from, To: to, Store: store,
			CheckpointEvery: 8, Workers: 2, Ingest: 2, Buffer: 8,
		})
		if !errors.Is(err, core.ErrIngest) {
			t.Fatalf("err = %v, want core.ErrIngest", err)
		}
		if raw, err := store.Get(context.Background(), CheckpointKey("eos", from, to)); err == nil {
			ckpt, err := core.DecodeShard(raw)
			if err != nil {
				t.Fatal(err)
			}
			if cov := ckpt.Covered(); cov.From <= bad {
				t.Fatalf("checkpoint covers %s, down past the undecodable block %d", cov, bad)
			}
		}
		if f.lowest() == from {
			t.Fatal("the stream ran to the end of the slice after ingestion failed")
		}
	})
}

// TestRunShardCrawlResumeAtEveryBoundary: interrupted right after any of
// its checkpoints, a worker's rerun picks up at or past that checkpoint,
// refetches nothing it covers, and emits the uninterrupted worker's shard.
// The killed worker's fetches are gated chunk by chunk, so it writes a
// checkpoint at every chunk boundary to be interrupted after.
func TestRunShardCrawlResumeAtEveryBoundary(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const from, to, every = 3, 63, 8
		fx := newChainFixture("xrp", from, to)
		want := fx.suffixRenders(t, from, to)[from]
		lows := chunkLows(from, to, every)
		for k := 1; k < len(lows); k++ {
			t.Run(fmt.Sprint("after checkpoint ", k), func(t *testing.T) {
				store := blobstore.NewMemory()
				cfg := CrawlerConfig{
					From: from, To: to, Store: store,
					CheckpointEvery: every, Workers: 2, Ingest: 2, Buffer: 4,
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				killed := cfg
				gate := newChunkGate(to, every)
				killed.Kit, killed.Fetcher = fx.kit(t), fx.fetcher(gate.before)
				var covered core.BlockRange
				killed.AfterCheckpoint = gate.after(cancelAfterCheckpoint(k, cancel, &covered))
				if _, err := RunShardCrawl(ctx, killed); err == nil {
					t.Fatal("interrupted worker reported success")
				}
				if covered != (core.BlockRange{From: lows[k-1], To: to}) {
					t.Fatalf("checkpoint %d covers %s, want [%d, %d]", k, covered, lows[k-1], to)
				}

				rerun := cfg
				f := fx.fetcher(nil)
				rerun.Kit, rerun.Fetcher = fx.kit(t), f
				out, err := RunShardCrawl(context.Background(), rerun)
				if err != nil {
					t.Fatal(err)
				}
				if out.Resumed.To != to || out.Resumed.From > lows[k-1] {
					t.Fatalf("resumed from %s, want checkpoint %d's [%d, %d] or a later one", out.Resumed, k, lows[k-1], to)
				}
				for num := range f.fetched {
					if num >= out.Resumed.From {
						t.Fatalf("rerun refetched block %d, inside the checkpoint's %s", num, out.Resumed)
					}
				}
				raw, err := store.Get(context.Background(), out.ShardKey)
				if err != nil {
					t.Fatal(err)
				}
				st, err := core.DecodeShard(raw)
				if err != nil {
					t.Fatal(err)
				}
				if got := st.Summary().Render(); got != want {
					t.Errorf("resumed shard differs from an uninterrupted worker's:\n--- got ---\n%s--- want ---\n%s", got, want)
				}
				if _, err := store.Get(context.Background(), CheckpointKey("xrp", from, to)); !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("finished worker left its checkpoint behind (err %v)", err)
				}
			})
		}
	})
}
