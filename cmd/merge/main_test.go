package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/retry"
	"repro/internal/wire"
)

// openStore resolves a store URL the test itself chose.
func openStore(t *testing.T, location string) blobstore.Store {
	t.Helper()
	store, err := blobstore.Resolve(location)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// tezosTime is when block num of the tests' Tezos chain was baked.
func tezosTime(num int64) string {
	return chain.ObservationStart.Add(time.Duration(num) * time.Hour).Format(time.RFC3339)
}

// tezosEndpoint serves the first n blocks of that chain, one endorsement
// each, to a crawl.
type tezosEndpoint int64

func (e tezosEndpoint) Head(context.Context) (int64, error) { return int64(e), nil }

func (e tezosEndpoint) FetchBlock(_ context.Context, num int64) ([]byte, error) {
	return json.Marshal(wire.TezosBlockJSON{
		Level:      num,
		Timestamp:  tezosTime(num),
		Operations: []wire.TezosOperationJSON{{Kind: "endorsement", Source: "tz1alice"}},
	})
}

// coordinateRun is one coordinate run of [from, to] in `shards` slices into
// location: coord.Run leasing each slice and launching the one shard
// producer, coord.RunShardCrawl, for it — in process here, a subprocess
// under cmd/coordinate.
func coordinateRun(t *testing.T, location string, from, to int64, shards int) {
	t.Helper()
	store := openStore(t, location)
	_, err := coord.Run(context.Background(), coord.Config{
		Chain: "tezos", From: from, To: to, Shards: shards,
		Store: store,
		Retry: retry.Policy{Attempts: 2, Base: time.Millisecond},
		Run: func(ctx context.Context, task coord.Task) error {
			kit, err := core.NewStatsKit("tezos", chain.ObservationStart, 6*time.Hour)
			if err != nil {
				return err
			}
			_, err = coord.RunShardCrawl(ctx, coord.CrawlerConfig{
				Kit: kit, Fetcher: tezosEndpoint(to),
				From: task.From, To: task.To,
				Store: store, CheckpointEvery: 4,
				Workers: 2, Ingest: 2,
				Fence: task.Fence,
			})
			return err
		},
	})
	if err != nil {
		t.Fatalf("coordinate run of [%d, %d] into %s: %v", from, to, location, err)
	}
}

// emitTezosShard puts the shard of blocks [from, to] at location by hand —
// for the stores no coordinate run leaves behind (overlapping runs, a run
// that never finished a slice), which merge must refuse.
func emitTezosShard(t *testing.T, location string, from, to int64) {
	t.Helper()
	st, err := core.NewShardState("tezos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]any, 0, to-from+1)
	for num := from; num <= to; num++ {
		batch = append(batch, &wire.TezosBlock{
			Timestamp:  tezosTime(num),
			Operations: []wire.TezosOperation{{Kind: "endorsement", Source: "tz1alice"}},
		})
	}
	if err := st.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	st.SetCovered(core.BlockRange{From: from, To: to})
	putShard(t, location, st)
}

// putShard stores st as a coordinate worker would have emitted it, sealed
// under its slice's key — unfenced, as no lease granted it a fence.
func putShard(t *testing.T, location string, st core.ShardState) {
	t.Helper()
	blob, err := core.EncodeShard(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	cov := st.Covered()
	key := fmt.Sprintf("%s-%010d-%010d.shard", st.Chain(), cov.From, cov.To)
	if err := openStore(t, location).Put(context.Background(), key, blob); err != nil {
		t.Fatal(err)
	}
}

// TestMergeRendersWholeRange: the stores of two coordinate runs over
// adjacent sub-ranges join into the figures one crawl of the whole range
// renders.
func TestMergeRendersWholeRange(t *testing.T) {
	coordinateRun(t, "mem://merge-a", 1, 7, 1)
	coordinateRun(t, "mem://merge-b", 8, 24, 2)

	kit, err := core.NewStatsKit("tezos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.IngestCrawl(context.Background(), tezosEndpoint(24),
		collect.CrawlConfig{From: 1, To: 24, Workers: 2}, kit.Decoder, core.IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	want := core.Figures(kit.State())

	var out, diag bytes.Buffer
	if err := run(context.Background(), []string{"mem://merge-a", "mem://merge-b"}, &out, slog.New(slog.NewTextHandler(&diag, nil))); err != nil {
		t.Fatalf("merge: %v\n%s", err, diag.String())
	}
	if out.String() != want {
		t.Fatalf("merged figures diverged\n--- want ---\n%s\n--- got ---\n%s", want, out.String())
	}
	if !strings.Contains(diag.String(), `msg=merged chain=tezos shards=3 covered="[1, 24]"`) {
		t.Fatalf("diagnostics missing shard count:\n%s", diag.String())
	}
}

// TestMergeRefusesOverlap: two stores whose runs overlap must fail
// loudly, naming the ranges AND the offending blobs (store URL + key), so
// the operator knows which objects to inspect.
func TestMergeRefusesOverlap(t *testing.T) {
	emitTezosShard(t, "mem://merge-ov-a", 1, 10)
	emitTezosShard(t, "mem://merge-ov-b", 8, 20)
	err := run(context.Background(), []string{"mem://merge-ov-a", "mem://merge-ov-b"}, io.Discard, slog.New(slog.DiscardHandler))
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping shards merged (err %v)", err)
	}
	for _, want := range []string{
		"tezos-0000000001-0000000010.shard", "at mem://merge-ov-a",
		"tezos-0000000008-0000000020.shard", "at mem://merge-ov-b",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("overlap error %q does not name %q", err, want)
		}
	}
}

// TestMergeRefusesGap: a missing slice (a run that never finished it)
// must fail loudly, not render short figures — and name the flanking blobs.
func TestMergeRefusesGap(t *testing.T) {
	emitTezosShard(t, "mem://merge-gap", 1, 10)
	emitTezosShard(t, "mem://merge-gap", 15, 20)
	err := run(context.Background(), []string{"mem://merge-gap"}, io.Discard, slog.New(slog.DiscardHandler))
	if err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gapped shards merged (err %v)", err)
	}
	for _, want := range []string{
		"tezos-0000000001-0000000010.shard", "tezos-0000000015-0000000020.shard", "at mem://merge-gap",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gap error %q does not name %q", err, want)
		}
	}
}

// TestMergeNamesCorruptBlob: an undecodable shard blob error carries the
// store URL and key.
func TestMergeNamesCorruptBlob(t *testing.T) {
	const store = "mem://merge-corrupt"
	emitTezosShard(t, store, 1, 10)
	st, err := blobstore.Resolve(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(context.Background(), "tezos-0000000011-0000000020.shard", []byte("not a shard")); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{store}, io.Discard, slog.New(slog.DiscardHandler))
	if err == nil || !strings.Contains(err.Error(), "corrupt shard tezos-0000000011-0000000020.shard at mem://merge-corrupt") {
		t.Fatalf("corrupt blob error does not name the blob: %v", err)
	}
}

// TestMergeEmptyStore: a location with no shard blobs is a loud error —
// a merge pointed at the wrong store must not print empty figures.
func TestMergeEmptyStore(t *testing.T) {
	err := run(context.Background(), []string{"mem://merge-empty"}, io.Discard, slog.New(slog.DiscardHandler))
	if err == nil || !strings.Contains(err.Error(), "no *.shard blobs") {
		t.Fatalf("empty store merged (err %v)", err)
	}
}

// TestMergeMultiChain: shards of different chains pooled in one store are
// grouped and rendered per chain in name order.
func TestMergeMultiChain(t *testing.T) {
	const store = "mem://merge-multichain"
	emitTezosShard(t, store, 1, 8)

	xst, err := core.NewShardState("xrp", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := xst.IngestBatch([]any{&wire.XRPLedger{
		CloseTime: chain.ObservationStart.Format(time.RFC3339),
		Transactions: []wire.XRPTx{{
			TransactionType: "Payment", Account: "rAlice",
			Destination: "rBob", Result: "tesSUCCESS", Sequence: 1,
			Amount: wire.XRPAmount{Set: true, Currency: "XRP", Value: 1000},
		}},
	}}); err != nil {
		t.Fatal(err)
	}
	xst.SetCovered(core.BlockRange{From: 1, To: 1})
	putShard(t, store, xst)

	var out bytes.Buffer
	if err := run(context.Background(), []string{store}, &out, slog.New(slog.DiscardHandler)); err != nil {
		t.Fatal(err)
	}
	tezosIdx := strings.Index(out.String(), "--- tezos figures ---")
	xrpIdx := strings.Index(out.String(), "--- xrp figures ---")
	if tezosIdx < 0 || xrpIdx < 0 || tezosIdx > xrpIdx {
		t.Fatalf("expected tezos then xrp figure sections:\n%s", out.String())
	}
	// The paper's sections render once, after both summaries, over both
	// chains.
	fig1 := strings.Index(out.String(), "Figure 1 —")
	if strings.Count(out.String(), "Figure 1 —") != 1 || fig1 < xrpIdx ||
		!strings.Contains(out.String()[fig1:], "tezos  ") || !strings.Contains(out.String()[fig1:], "xrp    ") {
		t.Fatalf("expected one Figure 1 over both chains after the summaries:\n%s", out.String())
	}
}
