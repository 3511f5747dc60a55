package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/stats"
	"repro/internal/wire"
)

// makeEOSRawBlocks synthesizes raw nodeos-style block JSON: one transfer
// transaction per action slot, timestamps inside the observation window.
func makeEOSRawBlocks(t testing.TB, n, txsPerBlock int) [][]byte {
	t.Helper()
	raws := make([][]byte, n)
	for i := 0; i < n; i++ {
		blk := wire.EOSBlockJSON{
			BlockNum:  uint32(i + 1),
			Timestamp: chain.ObservationStart.Add(time.Duration(i) * time.Minute).Format("2006-01-02T15:04:05.000"),
			Producer:  "eosio",
		}
		for j := 0; j < txsPerBlock; j++ {
			var trx wire.EOSTrxJSON
			trx.Status = "executed"
			trx.Trx.Transaction.Actions = []wire.EOSActionJSON{{
				Account: "eosio.token", Name: "transfer",
				Authorization: []map[string]string{{"actor": "alice"}},
				Data: map[string]string{
					"from": "alice", "to": "bob",
					"quantity": "1.0000 EOS",
				},
			}}
			blk.Transactions = append(blk.Transactions, trx)
		}
		raw, err := json.Marshal(blk)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	return raws
}

// memFetcher serves pre-marshaled blocks; it isolates ingestion cost from
// the network in tests and benchmarks.
type memFetcher struct{ raws [][]byte }

func (f *memFetcher) Head(ctx context.Context) (int64, error) { return int64(len(f.raws)), nil }

func (f *memFetcher) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	if num < 1 || num > int64(len(f.raws)) {
		return nil, fmt.Errorf("memFetcher: no block %d", num)
	}
	return f.raws[num-1], nil
}

// ingestRaw decodes one payload and applies it immediately — a batch of
// one through the Decoder contract's locked fold, the per-block reference
// the pool is compared against.
func ingestRaw(d Decoder, num int64, raw []byte) error {
	blk, err := d.Decode(num, raw)
	if err != nil {
		return err
	}
	batch := []any{blk}
	if err := d.IngestBatch(batch); err != nil {
		return err
	}
	if r, ok := d.(BatchReleaser); ok {
		r.ReleaseBatch(batch)
	}
	return nil
}

// TestIngestStreamMatchesPerBlockIngest: the batched decode pool must
// produce exactly the same aggregate as driving the Decoder one block at a
// time.
func TestIngestStreamMatchesPerBlockIngest(t *testing.T) {
	raws := makeEOSRawBlocks(t, 70, 3)

	oneKit := newKit(t, "eos")
	for i, raw := range raws {
		if err := ingestRaw(oneKit.Decoder, int64(i+1), raw); err != nil {
			t.Fatal(err)
		}
	}

	batchedKit := newKit(t, "eos")
	blocks, handle := collect.Stream(context.Background(), &memFetcher{raws}, collect.CrawlConfig{Workers: 4, Buffer: 8})
	n, err := ingestStream(context.Background(), blocks, batchedKit.Decoder, IngestConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := handle.Wait(); err != nil {
		t.Fatal(err)
	}
	if n != int64(len(raws)) {
		t.Fatalf("ingestStream ingested %d blocks, want %d", n, len(raws))
	}
	one, batched := oneKit.State().(*EOSShard), batchedKit.State().(*EOSShard)
	if one.Blocks != batched.Blocks || one.Transactions != batched.Transactions || one.Actions != batched.Actions {
		t.Fatalf("batched aggregate diverged: per-block {%d %d %d} vs batched {%d %d %d}",
			one.Blocks, one.Transactions, one.Actions,
			batched.Blocks, batched.Transactions, batched.Actions)
	}
	if a, b := one.ActionsByName["transfer"], batched.ActionsByName["transfer"]; a != b {
		t.Fatalf("transfers diverged: %d vs %d", a, b)
	}
}

// countingDecoder wraps a sharded Decoder and records the size of every
// batch its shards fold.
type countingDecoder struct {
	ShardedDecoder
	mu      sync.Mutex
	batches []int
}

func (d *countingDecoder) NewShard() Shard { return &countingShard{d.ShardedDecoder.NewShard(), d} }

type countingShard struct {
	Shard
	d *countingDecoder
}

func (s *countingShard) IngestBatch(batch []any) error {
	s.d.mu.Lock()
	s.d.batches = append(s.d.batches, len(batch))
	s.d.mu.Unlock()
	return s.Shard.IngestBatch(batch)
}

// TestIngestStreamBatches: shard folds must be batched — one worker folds
// 100 blocks as six full batches and the stream's remainder of four.
func TestIngestStreamBatches(t *testing.T) {
	raws := makeEOSRawBlocks(t, 100, 1)
	dec := &countingDecoder{ShardedDecoder: newKit(t, "eos").Decoder.(ShardedDecoder)}
	blocks, handle := collect.Stream(context.Background(), &memFetcher{raws}, collect.CrawlConfig{Workers: 2, Buffer: 32})
	if _, err := ingestStream(context.Background(), blocks, dec, IngestConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := handle.Wait(); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprint([]int{16, 16, 16, 16, 16, 16, 4}); fmt.Sprint(dec.batches) != want {
		t.Fatalf("batches %v, want %s", dec.batches, want)
	}
}

// TestIngestStreamDecodeErrorStops: a corrupt payload must surface as the
// ingest error without wedging the pool. The 35 blocks above it fill two
// batches before it arrives, and the error's drain folds the other three.
func TestIngestStreamDecodeErrorStops(t *testing.T) {
	raws := makeEOSRawBlocks(t, 40, 1)
	raws[4] = []byte("{corrupt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocks, handle := collect.Stream(ctx, &memFetcher{raws}, collect.CrawlConfig{Workers: 1, Buffer: 2})
	_, err := ingestStream(ctx, blocks, newKit(t, "eos").Decoder, IngestConfig{Workers: 1})
	if err == nil {
		t.Fatal("corrupt block ingested without error")
	}
	cancel() // the documented contract: cancel the stream after an ingest error
	if _, werr := handle.Wait(); werr == nil && err == nil {
		t.Fatal("no error surfaced anywhere")
	}
}

// TestDecodersRoundTripAllChains: each chain's Decoder must accept its own
// wire format and reject the others'.
func TestDecodersRoundTripAllChains(t *testing.T) {
	tezosRaw, err := json.Marshal(wire.TezosBlockJSON{
		Level: 7, Timestamp: chain.ObservationStart.Format(time.RFC3339),
		Operations: []wire.TezosOperationJSON{{Kind: "endorsement", Source: "tz1abc"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tezosKit := newKit(t, "tezos")
	if err := ingestRaw(tezosKit.Decoder, 7, tezosRaw); err != nil {
		t.Fatal(err)
	}
	tezosAgg := tezosKit.State().(*TezosShard)
	if tezosAgg.Blocks != 1 || tezosAgg.Operations != 1 {
		t.Fatalf("tezos ingest: %d blocks %d ops", tezosAgg.Blocks, tezosAgg.Operations)
	}

	xrpRaw := []byte(fmt.Sprintf(`{"ledger":{"ledger_index":3,"close_time_human":%q,"transactions":[{"TransactionType":"Payment","Account":"rAlice","Destination":"rBob","meta_TransactionResult":"tesSUCCESS","Amount":{"currency":"XRP","value":5}}]}}`,
		chain.ObservationStart.Format(time.RFC3339)))
	xrpKit := newKit(t, "xrp")
	if err := ingestRaw(xrpKit.Decoder, 3, xrpRaw); err != nil {
		t.Fatal(err)
	}
	xrpAgg := xrpKit.State().(*XRPShard)
	if xrpAgg.Ledgers != 1 || xrpAgg.Transactions != 1 {
		t.Fatalf("xrp ingest: %d ledgers %d txs", xrpAgg.Ledgers, xrpAgg.Transactions)
	}

	if err := ingestRaw(newKit(t, "eos").Decoder, 1, []byte(`not json`)); err == nil {
		t.Fatal("EOS decoder accepted garbage")
	}
}

// lockedDecoder hides the decoder's NewShard, leaving only the Decoder
// contract's locked fold: the ingest pool must refuse it.
type lockedDecoder struct{ Decoder }

// TestIngestStreamShardedMatchesSerial: the pool at 3 workers, each folding
// into its own shard, must aggregate exactly like one state folded
// serially on one goroutine — the same fold code, without a lock.
func TestIngestStreamShardedMatchesSerial(t *testing.T) {
	raws := makeEOSRawBlocks(t, 100, 3)
	ctx := context.Background()
	serial := newShard[*EOSShard]()
	dec := newKit(t, "eos").Decoder
	for i, raw := range raws {
		blk, err := dec.Decode(int64(i+1), raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := serial.IngestBatch([]any{blk}); err != nil {
			t.Fatal(err)
		}
	}

	kit := newKit(t, "eos")
	blocks, handle := collect.Stream(ctx, &memFetcher{raws}, collect.CrawlConfig{Workers: 4, Buffer: 16})
	n, err := ingestStream(ctx, blocks, kit.Decoder, IngestConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := handle.Wait(); err != nil {
		t.Fatal(err)
	}
	if n != int64(len(raws)) {
		t.Fatalf("ingested %d blocks, want %d", n, len(raws))
	}
	if want, got := serial.Summary().Render(), kit.Summarize().Render(); want != got {
		t.Fatalf("sharded stream ingest diverged from the serial fold\n--- serial ---\n%s\n--- sharded ---\n%s", want, got)
	}
}

// TestIngestRefusesUnshardedDecoder: the pool has one path, per-worker
// shards; a decoder that cannot hand one out is refused by name before a
// block is folded, not silently locked per batch.
func TestIngestRefusesUnshardedDecoder(t *testing.T) {
	raws := makeEOSRawBlocks(t, 12, 1)
	kit := newKit(t, "eos")
	dec := lockedDecoder{kit.Decoder}
	check := func(path string, n int64, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "core.lockedDecoder") {
			t.Fatalf("%s: err = %v, want a refusal naming core.lockedDecoder", path, err)
		}
		if n != 0 || kit.Txs() != 0 {
			t.Fatalf("%s: %d blocks ingested, %d txs folded into a refused decoder's aggregate", path, n, kit.Txs())
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocks, handle := collect.Stream(ctx, &memFetcher{raws}, collect.CrawlConfig{Workers: 1, Buffer: 2})
	n, err := ingestStream(ctx, blocks, dec, IngestConfig{})
	cancel()
	for blk := range blocks {
		blk.Release()
	}
	handle.Wait()
	check("ingestStream", n, err)

	rd := writeRawArchive(t, t.TempDir(), "eos", raws)
	n, err = IngestArchive(context.Background(), rd, dec, IngestConfig{})
	check("IngestArchive", n, err)
}

// TestIngestCrawlSizesTeeLessCrawls: IngestCrawl is where Figure 2's
// footprint is measured. With no tee it reports exactly what one gzip sizer
// fed the delivered payloads in delivery order reports — one fetch worker
// delivers newest first — and with a tee it sizes nothing: whoever keeps the
// bytes prices them.
func TestIngestCrawlSizesTeeLessCrawls(t *testing.T) {
	raws := makeEOSRawBlocks(t, 40, 2)
	ctx := context.Background()
	res, _, err := IngestCrawl(ctx, &memFetcher{raws}, collect.CrawlConfig{Workers: 1},
		newKit(t, "eos").Decoder, IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := stats.NewGzipSizer()
	defer want.Close()
	var raw int64
	for i := len(raws) - 1; i >= 0; i-- {
		want.Write(raws[i])
		raw += int64(len(raws[i]))
	}
	if res.GzipBytes != want.CompressedBytes() || res.RawBytes != raw {
		t.Fatalf("tee-less crawl: gzip=%d raw=%d, want gzip=%d raw=%d", res.GzipBytes, res.RawBytes, want.CompressedBytes(), raw)
	}

	var teed int
	res, _, err = IngestCrawl(ctx, &memFetcher{raws}, collect.CrawlConfig{
		Workers: 1, Tee: func(int64, []byte) error { teed++; return nil },
	}, newKit(t, "eos").Decoder, IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GzipBytes != 0 || teed != len(raws) {
		t.Fatalf("teed crawl: gzip=%d after %d tee calls, want 0 after %d", res.GzipBytes, teed, len(raws))
	}
}
