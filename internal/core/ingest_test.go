package core

import (
	"context"
	"encoding/json"
	"fmt"
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
// one through the Decoder contract, the per-block reference the pool is
// compared against.
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
	raws := makeEOSRawBlocks(t, 64, 3)

	one := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	dec := one.Decoder()
	for i, raw := range raws {
		if err := ingestRaw(dec, int64(i+1), raw); err != nil {
			t.Fatal(err)
		}
	}

	batched := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	blocks, handle := collect.Stream(context.Background(), &memFetcher{raws}, collect.CrawlConfig{Workers: 4, Buffer: 8})
	n, err := IngestStream(context.Background(), blocks, batched.Decoder(), IngestConfig{Workers: 3, Batch: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := handle.Wait(); err != nil {
		t.Fatal(err)
	}
	if n != int64(len(raws)) {
		t.Fatalf("IngestStream ingested %d blocks, want %d", n, len(raws))
	}
	if one.Blocks != batched.Blocks || one.Transactions != batched.Transactions || one.Actions != batched.Actions {
		t.Fatalf("batched aggregate diverged: per-block {%d %d %d} vs batched {%d %d %d}",
			one.Blocks, one.Transactions, one.Actions,
			batched.Blocks, batched.Transactions, batched.Actions)
	}
	if one.TransferShare() != batched.TransferShare() {
		t.Fatalf("transfer share diverged: %f vs %f", one.TransferShare(), batched.TransferShare())
	}
}

// countingDecoder wraps a Decoder and records batch sizes.
type countingDecoder struct {
	inner   Decoder
	mu      sync.Mutex
	batches []int
}

func (d *countingDecoder) Decode(num int64, raw []byte) (any, error) { return d.inner.Decode(num, raw) }

func (d *countingDecoder) IngestBatch(batch []any) error {
	d.mu.Lock()
	d.batches = append(d.batches, len(batch))
	d.mu.Unlock()
	return d.inner.IngestBatch(batch)
}

// TestIngestStreamBatches: lock acquisitions must be amortized — far fewer
// IngestBatch calls than blocks, and no batch above the configured cap.
func TestIngestStreamBatches(t *testing.T) {
	raws := makeEOSRawBlocks(t, 96, 1)
	agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	dec := &countingDecoder{inner: agg.Decoder()}
	blocks, handle := collect.Stream(context.Background(), &memFetcher{raws}, collect.CrawlConfig{Workers: 2, Buffer: 32})
	if _, err := IngestStream(context.Background(), blocks, dec, IngestConfig{Workers: 1, Batch: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := handle.Wait(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range dec.batches {
		if b > 16 {
			t.Fatalf("batch of %d exceeds configured cap 16", b)
		}
		total += b
	}
	if total != 96 {
		t.Fatalf("batches cover %d blocks, want 96", total)
	}
	if len(dec.batches) > 96/8 {
		t.Fatalf("%d lock acquisitions for 96 blocks — batching is not amortizing", len(dec.batches))
	}
}

// TestIngestStreamDecodeErrorStops: a corrupt payload must surface as the
// ingest error without wedging the pool.
func TestIngestStreamDecodeErrorStops(t *testing.T) {
	raws := makeEOSRawBlocks(t, 10, 1)
	raws[4] = []byte("{corrupt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocks, handle := collect.Stream(ctx, &memFetcher{raws}, collect.CrawlConfig{Workers: 1, Buffer: 2})
	agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	_, err := IngestStream(ctx, blocks, agg.Decoder(), IngestConfig{Workers: 1, Batch: 4})
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
	tezosAgg := NewTezosAggregator(chain.ObservationStart, 6*time.Hour)
	if err := ingestRaw(tezosAgg.Decoder(), 7, tezosRaw); err != nil {
		t.Fatal(err)
	}
	if tezosAgg.Blocks != 1 || tezosAgg.Operations != 1 {
		t.Fatalf("tezos ingest: %d blocks %d ops", tezosAgg.Blocks, tezosAgg.Operations)
	}

	xrpRaw := []byte(fmt.Sprintf(`{"ledger":{"ledger_index":3,"close_time_human":%q,"transactions":[{"TransactionType":"Payment","Account":"rAlice","Destination":"rBob","meta_TransactionResult":"tesSUCCESS","Amount":{"currency":"XRP","value":5}}]}}`,
		chain.ObservationStart.Format(time.RFC3339)))
	xrpAgg := NewXRPAggregator(chain.ObservationStart, 6*time.Hour)
	if err := ingestRaw(xrpAgg.Decoder(), 3, xrpRaw); err != nil {
		t.Fatal(err)
	}
	if xrpAgg.Ledgers != 1 || xrpAgg.Transactions != 1 {
		t.Fatalf("xrp ingest: %d ledgers %d txs", xrpAgg.Ledgers, xrpAgg.Transactions)
	}

	eosAgg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	if err := ingestRaw(eosAgg.Decoder(), 1, []byte(`not json`)); err == nil {
		t.Fatal("EOS decoder accepted garbage")
	}
}

// lockedDecoder hides the decoder's NewShard so IngestStream takes the
// non-sharded path: every batch under the aggregator's one mutex — the
// reference the sharded path is compared against. It keeps
// forwarding ReleaseBatch so both paths recycle arena structs identically.
type lockedDecoder struct{ Decoder }

func (d lockedDecoder) ReleaseBatch(batch []any) {
	if r, ok := d.Decoder.(BatchReleaser); ok {
		r.ReleaseBatch(batch)
	}
}

// TestIngestStreamShardedMatchesLocked: the per-worker-shard path must
// aggregate exactly like the locked path it replaced.
func TestIngestStreamShardedMatchesLocked(t *testing.T) {
	raws := makeEOSRawBlocks(t, 96, 3)
	ctx := context.Background()
	run := func(d func(*EOSAggregator) Decoder) *EOSAggregator {
		agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
		blocks, handle := collect.Stream(ctx, &memFetcher{raws}, collect.CrawlConfig{Workers: 4, Buffer: 16})
		n, err := IngestStream(ctx, blocks, d(agg), IngestConfig{Workers: 3, Batch: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := handle.Wait(); err != nil {
			t.Fatal(err)
		}
		if n != int64(len(raws)) {
			t.Fatalf("ingested %d blocks, want %d", n, len(raws))
		}
		return agg
	}
	locked := run(func(a *EOSAggregator) Decoder { return lockedDecoder{a.Decoder()} })
	sharded := run(func(a *EOSAggregator) Decoder { return a.Decoder() })
	if lr, sr := SummarizeEOS(locked).Render(), SummarizeEOS(sharded).Render(); lr != sr {
		t.Fatalf("sharded stream ingest diverged from locked\n--- locked ---\n%s\n--- sharded ---\n%s", lr, sr)
	}
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
		NewEOSAggregator(chain.ObservationStart, 6*time.Hour).Decoder(), IngestConfig{})
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
	}, NewEOSAggregator(chain.ObservationStart, 6*time.Hour).Decoder(), IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GzipBytes != 0 || teed != len(raws) {
		t.Fatalf("teed crawl: gzip=%d after %d tee calls, want 0 after %d", res.GzipBytes, teed, len(raws))
	}
}
