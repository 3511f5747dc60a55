package main

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/serve"
)

// The decorators must keep every optional interface the ingest pool and
// the crawl stream probe for, or the traced run measures a different
// program (locked aggregation, no arena recycling, no buffer reuse).
var (
	_ core.ShardedDecoder = (*tracedDecoder)(nil)
	_ core.BatchReleaser  = (*tracedDecoder)(nil)
	_ core.Shard          = (*tracedShard)(nil)
	_ collect.RawRecycler = (*tracedFetcher)(nil)
	_ blobstore.Store     = (*tracedStore)(nil)
)

// sharedFetcher replays shared buffers: it must not be reported as owning
// its payloads, traced or not.
type sharedFetcher struct{}

func (sharedFetcher) Head(context.Context) (int64, error)               { return 1, nil }
func (sharedFetcher) FetchBlock(context.Context, int64) ([]byte, error) { return []byte("{}"), nil }

func tinyDataset(t *testing.T) *dataset { return testDataset(t, tinyScales) }

func testDataset(t *testing.T, sc scales) *dataset {
	t.Helper()
	ds, err := setUp(context.Background(), 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.close)
	return ds
}

func TestNilTracerWrapsNothing(t *testing.T) {
	var tr *tracer
	ds := tinyDataset(t)
	c := ds.chains[0]
	if got := tr.fetcher(c.client, nil, true); got != c.client {
		t.Error("a nil tracer wrapped the fetcher")
	}
	if got := tr.store(c.store, nil); got != c.store {
		t.Error("a nil tracer wrapped the store")
	}
	kit := newKit(c.name)
	if got, err := tr.decoder(kit.Decoder, c.name, nil); err != nil || got != kit.Decoder {
		t.Errorf("a nil tracer wrapped the decoder (err %v)", err)
	}
	if id := tr.begin("x", -1, false); id != -1 {
		t.Errorf("a nil tracer opened span %d", id)
	}
	tr.end(-1)
	tr.add("x", 1)
}

func TestTracedDecoratorsForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	ds := tinyDataset(t)
	root := newScope(-1)
	for _, c := range ds.chains {
		owning := tr.fetcher(c.reader, root, false).(collect.RawRecycler)
		if !owning.OwnsRaw() {
			t.Errorf("%s: traced archive reader no longer owns its payloads", c.name)
		}
		dec, err := tr.decoder(newKit(c.name).Decoder, c.name, root)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := dec.(core.ShardedDecoder); !ok {
			t.Errorf("%s: traced decoder is not sharded", c.name)
		}
		// core.PeriodicMerge passes a non-sharded decoder through
		// untouched, so a wrapper that lost NewShard would silently turn
		// the serve feed into the locked path.
		if _, ok := core.PeriodicMerge(dec, 0).(core.ShardedDecoder); !ok {
			t.Errorf("%s: PeriodicMerge over the traced decoder is not sharded", c.name)
		}
	}
	if tr.fetcher(sharedFetcher{}, root, false).(collect.RawRecycler).OwnsRaw() {
		t.Error("a traced fetcher claims ownership its inner fetcher never declared")
	}
	if _, err := tr.decoder(plainDecoder{}, "eos", root); err == nil {
		t.Error("tracing a non-sharded decoder must be refused, not papered over")
	}
}

type plainDecoder struct{}

func (plainDecoder) Decode(int64, []byte) (any, error) { return nil, nil }
func (plainDecoder) IngestBatch([]any) error           { return nil }

// A traced round of every ingest workload renders the oracle's bytes and
// leaves one decode span per block.
func TestTracedRoundsRenderTheOracle(t *testing.T) {
	ds := tinyDataset(t)
	env := &runEnv{ds: ds, seed: 1, burst: tinyScales.Burst}
	ctx := context.Background()
	for _, name := range []string{"crawl", "replay", "coordinate", "serve"} {
		w, _ := findWorkload(name)
		tr := newTracer()
		res, err := w.round(ctx, env, 0, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 0 || res.ops != ds.blocks {
			t.Errorf("%s: traced round ingested %d of %d blocks, %d of %d checks failed", name, res.ops, ds.blocks, res.failed, res.attempted)
		}
		b := tr.budget(maxProcs, nil)
		if b.wall <= 0 {
			t.Fatalf("%s: no round span", name)
		}
		if diff := math.Abs(b.wall.Seconds()-res.elapsed.Seconds()) / res.elapsed.Seconds(); diff > 0.10 {
			t.Errorf("%s: round span %v but measured phase %v", name, b.wall, res.elapsed)
		}
		if name == "replay" {
			// Every busy span of a replay round is opened by the round's own
			// goroutine or by one of the two ingest workers, and self time
			// never counts an instant twice on one goroutine. So the layers
			// cannot claim more than wall × 2 however the box schedules them:
			// a span parented wrongly, or a child not subtracted from its
			// parent, breaks this. Nor can they claim nothing.
			if b.busy > b.wall*maxProcs {
				t.Errorf("replay: layers claim %v busy, more than wall %v × %d workers: something is counted twice", b.busy, b.wall, maxProcs)
			}
			if b.unattributed < 0 || b.unattributed > 0.9 {
				t.Errorf("replay: unattributed share %.3f, want within [0, 0.9]", b.unattributed)
			}
		}
		for _, c := range ds.chains {
			if l := b.layer("wire.decode." + c.name); int64(l.spans) != c.head {
				t.Errorf("%s: %d wire.decode.%s spans, want one per block (%d)", name, l.spans, c.name, c.head)
			}
			if b.layer("core.aggregate."+c.name).spans == 0 {
				t.Errorf("%s: no core.aggregate.%s span", name, c.name)
			}
		}
		var table strings.Builder
		b.write(&table, 1)
		if !strings.Contains(table.String(), "unattributed") {
			t.Errorf("%s: budget table has no unattributed row:\n%s", name, table.String())
		}
		for _, s := range tr.spans {
			if s.End < s.Start {
				t.Errorf("%s: span %s never ended", name, s.Name)
			}
			if s.Parent >= 0 && tr.spans[s.Parent].Start > s.Start {
				t.Errorf("%s: span %s starts before its parent %s", name, s.Name, tr.spans[s.Parent].Name)
			}
		}
	}
}

// Where each workload's spans come from: a layer that a workload does not
// run must leave no span there, which is what "predicted flat" rests on.
func TestLayersAppearOnlyWhereTheyRun(t *testing.T) {
	ds := tinyDataset(t)
	env := &runEnv{ds: ds, seed: 1, burst: tinyScales.Burst}
	ctx := context.Background()
	has := func(name string) map[string]bool {
		w, _ := findWorkload(name)
		tr := newTracer()
		if name == "query" {
			if err := prepareQuery(ctx, env, tr); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.round(ctx, env, 0, tr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := map[string]bool{}
		for _, l := range tr.layers(nil) {
			seen[l.name] = true
		}
		return seen
	}
	crawl, replay, coordinate, serveL, query := has("crawl"), has("replay"), has("coordinate"), has("serve"), has("query")
	for _, tc := range []struct {
		layer string
		on    []map[string]bool
		off   []map[string]bool
	}{
		{"archive.append", []map[string]bool{crawl}, []map[string]bool{replay, coordinate, serveL, query}},
		{"collect.fetch", []map[string]bool{crawl, coordinate}, []map[string]bool{replay, serveL, query}},
		{"archive.open", []map[string]bool{replay}, []map[string]bool{crawl, coordinate, serveL, query}},
		{"blobstore.lease", []map[string]bool{coordinate}, []map[string]bool{crawl, replay, serveL, query}},
		{"blobstore.runstate", []map[string]bool{coordinate}, []map[string]bool{crawl, replay, serveL, query}},
		{"blobstore.ckpt", []map[string]bool{coordinate}, []map[string]bool{crawl, replay, serveL, query}},
		{"blobstore.shard", []map[string]bool{coordinate}, []map[string]bool{crawl, replay, serveL, query}},
		{"serve.handler", []map[string]bool{serveL, query}, []map[string]bool{crawl, replay, coordinate}},
		{"wire.decode.eos", []map[string]bool{crawl, replay, coordinate, serveL}, []map[string]bool{query}},
		{"core.merge", []map[string]bool{crawl, replay, coordinate, serveL}, []map[string]bool{query}},
	} {
		for _, m := range tc.on {
			if !m[tc.layer] {
				t.Errorf("%s has no span on a workload that runs it", tc.layer)
			}
		}
		for _, m := range tc.off {
			if m[tc.layer] {
				t.Errorf("%s has a span on a workload that should not run it", tc.layer)
			}
		}
	}
}

func TestLayerSelfTimeExcludesChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "round", Start: 0, End: 100, Parent: -1},
		{Name: "archive.append", Start: 10, End: 60, Parent: 0},
		{Name: "blobstore.archive", Start: 20, End: 50, Parent: 1},
		{Name: "collect.fetch", Start: 0, End: 90, Parent: 0, Wait: true},
	}
	b := tr.budget(2, nil)
	if l := b.layer("archive.append"); l.total != 50 || l.self != 20 {
		t.Errorf("archive.append total %v self %v, want 50ns 20ns", l.total, l.self)
	}
	if b.wall != 100*time.Nanosecond || b.busy != 50*time.Nanosecond {
		t.Errorf("wall %v busy %v, want 100ns and 50ns (append's 20 + the put's 30; the waiting fetch is not busy)", b.wall, b.busy)
	}
	if want := 1 - 50.0/200.0; math.Abs(b.unattributed-want) > 1e-9 {
		t.Errorf("unattributed %v, want %v", b.unattributed, want)
	}
}

// A round the box ran at half speed (its kernel read twice the nominal)
// weighs half as much in the budget as it did on the clock.
func TestBudgetIsAtReferenceSpeed(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "round", Start: 0, End: 100, Parent: -1, Round: 1},
		{Name: "wire.decode.eos", Start: 10, End: 50, Parent: 0, Round: 1},
		{Name: "round", Start: 1000, End: 1200, Parent: -1, Round: 3},
		{Name: "wire.decode.eos", Start: 1020, End: 1100, Parent: 2, Round: 3},
	}
	b := tr.budget(2, map[int32]float64{1: 1, 3: 0.5})
	if b.wall != 200 {
		t.Errorf("wall %v, want 200ns (100 + 200 × ½)", b.wall)
	}
	if l := b.layer("wire.decode.eos"); l.total != 80 || l.spans != 2 {
		t.Errorf("decode total %v over %d spans, want 80ns (40 + 80 × ½) over 2", l.total, l.spans)
	}
	if want := 1 - 80.0/400.0; math.Abs(b.unattributed-want) > 1e-9 {
		t.Errorf("unattributed %v, want %v", b.unattributed, want)
	}
}

// serve's traced round cannot hand FeedArchive a traced decoder, so
// feedArchive spells out FeedArchive's public calls itself. Whatever a
// publisher can show of a feed must come out the same either way, or the
// per-layer budget describes a program ops_per_s does not measure.
func TestTracedFeedMatchesFeedArchive(t *testing.T) {
	// Enough blocks per chain for several batches, or no merge is periodic.
	ds := testDataset(t, scales{EOS: 200_000, Tezos: 1_000, XRP: 50_000})
	ctx := context.Background()
	feed := func(tr *tracer) *serve.Snapshot {
		pub := serve.NewPublisher()
		for _, c := range ds.chains {
			n, err := feedArchive(ctx, pub, c, tr, newScope(-1))
			if err != nil {
				t.Fatal(err)
			}
			if n != c.head {
				t.Fatalf("%s: fed %d of %d blocks", c.name, n, c.head)
			}
		}
		return pub.Current()
	}
	tr := newTracer()
	plain, traced := feed(nil), feed(tr)
	if plain.Epoch != traced.Epoch || plain.Drained != traced.Drained || !plain.Drained {
		t.Errorf("FeedArchive left epoch %d drained %v, the traced feed epoch %d drained %v",
			plain.Epoch, plain.Drained, traced.Epoch, traced.Drained)
	}
	if got := traced.RenderFigures(); got != plain.RenderFigures() || got != ds.figures {
		t.Error("the traced feed serves figures that differ from FeedArchive's or the oracle's")
	}
	for name, want := range plain.Chains {
		got, ok := traced.Chains[name]
		if !ok || !got.Window.Equal(want.Window) || got.Drained != want.Drained {
			t.Errorf("%s: traced feed registered window %v drained %v, FeedArchive %v %v", name, got.Window, got.Drained, want.Window, want.Drained)
		}
	}
	// FeedArchive ingests through core.PeriodicMerge: shards fold into the
	// shared aggregate while the feed runs, not only when it drains.
	merges := tr.budget(maxProcs, nil).layer("core.merge").spans
	if shards := len(ds.chains) * serveIngest; merges <= shards {
		t.Errorf("%d core.merge spans for %d shards: the traced feed no longer merges periodically", merges, shards)
	}
}
