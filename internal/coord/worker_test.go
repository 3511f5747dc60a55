package coord

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/core"
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

// TestRunShardCrawlCheckpointContract pins what a worker's store sees, for
// every chain and every shape of pipeline: one checkpoint per chunk but the
// last, in order, each a consistent cut — it decodes to exactly the
// aggregate a serial ingest of [lo, To] builds, no block of a later chunk
// inside — then the shard, then the checkpoint's removal.
func TestRunShardCrawlCheckpointContract(t *testing.T) {
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
						lows := chunkLows(from, to, every)
						lows = lows[:len(lows)-1] // the last chunk ends in the shard, not a checkpoint
						if len(store.ops) != len(lows)+2 {
							t.Fatalf("%d writes, want %d checkpoints, the shard and the checkpoint's removal: %v", len(store.ops), len(lows), opKeys(store.ops))
						}
						for i, lo := range lows {
							op := store.ops[i]
							if op.op != blobstore.OpPut || op.key != ckptKey {
								t.Fatalf("write %d is %s %s, want checkpoint %d", i, op.op, op.key, i+1)
							}
							st, err := core.DecodeShard(op.data)
							if err != nil {
								t.Fatalf("checkpoint %d: %v", i+1, err)
							}
							if cov := st.Covered(); cov.From != lo || cov.To != to {
								t.Fatalf("checkpoint %d covers %s, want [%d, %d]", i+1, cov, lo, to)
							}
							if got := st.Summary().Render(); got != want[lo] {
								t.Fatalf("checkpoint %d is not the aggregate of [%d, %d]:\n--- got ---\n%s--- want ---\n%s", i+1, lo, to, got, want[lo])
							}
							if hooked[i] != (core.BlockRange{From: lo, To: to}) {
								t.Fatalf("AfterCheckpoint %d saw %s, want [%d, %d]", i+1, hooked[i], lo, to)
							}
						}
						if len(hooked) != len(lows) {
							t.Fatalf("AfterCheckpoint ran %d times for %d checkpoints", len(hooked), len(lows))
						}
						shard, removal := store.ops[len(lows)], store.ops[len(lows)+1]
						if shard.op != blobstore.OpPut || shard.key != out.ShardKey || !strings.HasSuffix(shard.key, ".shard") {
							t.Fatalf("after the checkpoints came %s %s, want the shard put", shard.op, shard.key)
						}
						if removal.op != blobstore.OpDelete || removal.key != ckptKey {
							t.Fatalf("last write is %s %s, want the checkpoint's removal", removal.op, removal.key)
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
}

func opKeys(ops []storeOp) []string {
	keys := make([]string, len(ops))
	for i, op := range ops {
		keys[i] = op.op + " " + op.key
	}
	return keys
}

// TestRunShardCrawlStalledBlock: one block's fetch hangs while every other
// returns at once — a fetch worker deep in backoff. The slice must
// complete (no deadlock: the test's timeout is the witness) with every
// checkpoint still a consistent cut.
func TestRunShardCrawlStalledBlock(t *testing.T) {
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
	ckpts := 0
	for _, op := range store.ops {
		if op.op != blobstore.OpPut || !strings.HasPrefix(op.key, "ckpt/") {
			continue
		}
		ckpts++
		st, err := core.DecodeShard(op.data)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Summary().Render(); got != want[st.Covered().From] {
			t.Fatalf("checkpoint covering %s is not that range's aggregate", st.Covered())
		}
	}
	if ckpts != to/every-1 {
		t.Fatalf("%d checkpoints, want %d", ckpts, to/every-1)
	}
}

// TestRunShardCrawlFailedBlock: a block that exhausts its retries fails the
// worker within one in-flight window, leaves no checkpoint reaching down to
// the hole, and a rerun against a healed endpoint resumes from what was
// left and matches the oracle.
func TestRunShardCrawlFailedBlock(t *testing.T) {
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
}

// TestRunShardCrawlIngestError: a payload the decoder refuses stops the
// worker with core.ErrIngest, and no checkpoint covers the refused block.
func TestRunShardCrawlIngestError(t *testing.T) {
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
}

// TestRunShardCrawlResumeAtEveryBoundary: interrupted right after any of
// its checkpoints, a worker's rerun picks up at or past that checkpoint,
// refetches nothing it covers, and emits the uninterrupted worker's shard.
func TestRunShardCrawlResumeAtEveryBoundary(t *testing.T) {
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
			killed.Kit, killed.Fetcher = fx.kit(t), fx.fetcher(nil)
			killed.AfterCheckpoint = cancelAfterCheckpoint(k, cancel, nil)
			if _, err := RunShardCrawl(ctx, killed); err == nil {
				t.Fatal("interrupted worker reported success")
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
}
