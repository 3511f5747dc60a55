package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/wire"
)

// writeRawArchive archives pre-marshaled blocks [1, len(raws)] in reverse
// order (arrival order of a reverse-chronological crawl).
func writeRawArchive(t testing.TB, dir string, chainName string, raws [][]byte) *archive.Reader {
	t.Helper()
	w, err := archive.NewWriter(archive.WriterConfig{Dir: dir, Chain: chainName, SegmentBlocks: 48})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(len(raws)); num >= 1; num-- {
		if err := w.Append(num, raws[num-1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := archive.OpenWith(dir, archive.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// TestIngestArchiveMatchesStreamIngest: the in-place replay must produce
// byte-identical figures to the stream-fetch replay (and hence to the live
// crawl), at every worker count.
func TestIngestArchiveMatchesStreamIngest(t *testing.T) {
	raws := makeEOSRawBlocks(t, 96, 4)
	rd := writeRawArchive(t, t.TempDir(), "eos", raws)

	streamAgg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	res, _, err := IngestCrawl(context.Background(), rd, collect.CrawlConfig{
		From: rd.From(), To: rd.To(), Workers: 3,
	}, streamAgg.Decoder(), IngestConfig{Workers: 2, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != int64(len(raws)) {
		t.Fatalf("stream replay fetched %d blocks, want %d", res.Blocks, len(raws))
	}
	want := SummarizeEOS(streamAgg).Render()

	for _, workers := range []int{1, 2, 4, 7} {
		agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
		n, err := IngestArchive(context.Background(), rd, agg.Decoder(), IngestConfig{Workers: workers, Batch: 8})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != int64(len(raws)) {
			t.Fatalf("workers=%d: ingested %d blocks, want %d", workers, n, len(raws))
		}
		if got := SummarizeEOS(agg).Render(); got != want {
			t.Fatalf("workers=%d: segment-walk render diverged\n--- stream ---\n%s\n--- walk ---\n%s", workers, want, got)
		}
	}
}

// TestIngestArchiveOneSegmentAnyWorkers: replay claims work below the
// segment, so a one-segment archive is shared between however many workers
// there are — and whichever worker's shard a block lands in, the merged
// render is byte-identical to the one-worker replay's, for all three
// chains.
func TestIngestArchiveOneSegmentAnyWorkers(t *testing.T) {
	c := wire.NewCodec()
	chains := map[string][][]byte{}
	for _, b := range genEOSBlockJSONs(100) {
		chains["eos"] = append(chains["eos"], c.AppendEOSBlock(nil, b))
	}
	for _, b := range genTezosBlockJSONs(100) {
		chains["tezos"] = append(chains["tezos"], c.AppendTezosBlock(nil, b))
	}
	for _, l := range genXRPLedgerJSONs(100) {
		chains["xrp"] = append(chains["xrp"], append(c.AppendXRPLedger([]byte(`{"ledger":`), l), '}'))
	}
	for name, raws := range chains {
		st := blobstore.NewMemory()
		w, err := archive.NewWriter(archive.WriterConfig{Store: st, Chain: name, SegmentBlocks: len(raws)})
		if err != nil {
			t.Fatal(err)
		}
		for i, raw := range raws {
			if err := w.Append(int64(i+1), raw); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := archive.OpenWith("", archive.OpenOptions{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if rd.Segments() != 1 {
			t.Fatalf("%s: archive has %d segments, want 1", name, rd.Segments())
		}
		var want string
		for _, workers := range []int{1, 2, 4, 8} {
			kit, err := NewStatsKit(name, chain.ObservationStart, 6*time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			n, err := IngestArchive(context.Background(), rd, kit.Decoder, IngestConfig{Workers: workers, Batch: 4})
			if err != nil || n != int64(len(raws)) {
				t.Fatalf("%s workers=%d: ingested %d of %d blocks, err %v", name, workers, n, len(raws), err)
			}
			got := kit.Summarize().Render()
			if workers == 1 {
				want = got
			} else if got != want {
				t.Fatalf("%s workers=%d: render diverged from the one-worker replay\n--- 1 worker ---\n%s\n--- %d workers ---\n%s",
					name, workers, want, workers, got)
			}
		}
	}
}

// TestIngestArchiveDecodeError: a payload the decoder rejects surfaces as
// the replay error, with the blocks ingested before it still counted.
func TestIngestArchiveDecodeError(t *testing.T) {
	raws := makeEOSRawBlocks(t, 12, 1)
	raws[7] = []byte(`{broken`)
	rd := writeRawArchive(t, t.TempDir(), "eos", raws)
	agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	n, err := IngestArchive(context.Background(), rd, agg.Decoder(), IngestConfig{Workers: 2})
	if err == nil {
		t.Fatal("corrupt payload replayed without error")
	}
	if n >= int64(len(raws)) {
		t.Fatalf("ingested %d blocks despite a corrupt one", n)
	}
}
