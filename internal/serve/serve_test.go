package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/testkit"
	"repro/internal/wire"
)

// eosBlocks builds an ingest batch of n synthetic EOS blocks numbered
// start..start+n-1, each carrying one token transfer, timestamped inside
// the paper's observation window so the series buckets normally.
func eosBlocks(n int, start int64) []any {
	base := time.Date(2019, time.October, 2, 0, 0, 0, 0, time.UTC)
	blocks := make([]any, n)
	for i := range blocks {
		num := start + int64(i)
		from, to := fmt.Sprintf("user%d", num%7), fmt.Sprintf("user%d", (num+1)%7)
		blocks[i] = &wire.EOSBlock{
			Timestamp: base.Add(time.Duration(num) * time.Second).Format(wire.EOSTimestampLayout),
			Transactions: []wire.EOSTrx{{Actions: []wire.EOSAction{{
				Account: "eosio.token", Name: "transfer",
				Actor: from, From: from, To: to, Quantity: "1.0000 EOS",
			}}}},
		}
	}
	return blocks
}

// newEOSPublisher registers an EOS StatsKit's Summarize with a fresh
// publisher; tests fold blocks in through the kit's Decoder.
func newEOSPublisher(t testing.TB) (*Publisher, core.StatsKit, func()) {
	p := NewPublisher()
	kit, err := core.NewStatsKit("eos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	release, err := p.Register("eos", core.Window{Origin: chain.ObservationStart, Bucket: 6 * time.Hour}, kit.Summarize)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	return p, kit, release
}

func TestPublisherEmptySnapshot(t *testing.T) {
	p := NewPublisher()
	snap := p.Current()
	if snap == nil {
		t.Fatal("fresh publisher served a nil snapshot")
	}
	if snap.Epoch != 0 || len(snap.Chains) != 0 || snap.Drained {
		t.Fatalf("unexpected empty snapshot: %+v", snap)
	}
	if got := p.Publish(); got.Epoch != 1 {
		t.Fatalf("first publish epoch = %d, want 1", got.Epoch)
	}
	// No chains registered: never "drained" — there is nothing final to serve.
	if p.Drained() {
		t.Fatal("empty publisher reports drained")
	}
}

func TestRegisterDuplicateChain(t *testing.T) {
	p, _, release := newEOSPublisher(t)
	defer release()
	w := core.Window{Origin: chain.ObservationStart, Bucket: 6 * time.Hour}
	if _, err := p.Register("eos", w, func() core.ChainSummary { return core.ChainSummary{} }); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
}

// TestRegisterWindowMismatch: a second feed for the same chain with a
// different bucket size (or origin) must be rejected with an error naming
// both windows — snapshots mixing differently-anchored series would be
// meaningless. A different chain NAME with a different window stays legal
// (the pipeline's governance feed relies on that).
func TestRegisterWindowMismatch(t *testing.T) {
	p, _, release := newEOSPublisher(t)
	defer release()
	w24 := core.Window{Origin: chain.ObservationStart, Bucket: 24 * time.Hour}
	_, err := p.Register("eos", w24, func() core.ChainSummary { return core.ChainSummary{} })
	if err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("window-mismatched duplicate not called out: %v", err)
	}
	relGov, err := p.Register("governance", w24, func() core.ChainSummary { return core.ChainSummary{} })
	if err != nil {
		t.Fatalf("distinct chain with its own window rejected: %v", err)
	}
	defer relGov()
	snap := p.Publish()
	if got := snap.Chains["governance"].Window; !got.Equal(w24) {
		t.Fatalf("snapshot window = %s, want %s", got, w24)
	}
	if got := snap.Chains["eos"].Window; got.Bucket != 6*time.Hour {
		t.Fatalf("eos snapshot window = %s, want 6h bucket", got)
	}
}

func TestReleaseMarksDrainedAndPublishes(t *testing.T) {
	p, kit, release := newEOSPublisher(t)
	if err := kit.Decoder.IngestBatch(eosBlocks(10, 1)); err != nil {
		t.Fatal(err)
	}
	before := p.Publish()
	if before.Drained || before.Chains["eos"].Drained {
		t.Fatalf("drained before release: %+v", before)
	}
	release()
	release() // idempotent
	snap := p.Current()
	if snap.Epoch <= before.Epoch {
		t.Fatalf("release did not publish: epoch %d -> %d", before.Epoch, snap.Epoch)
	}
	if !snap.Drained || !snap.Chains["eos"].Drained {
		t.Fatalf("release did not mark drained: %+v", snap)
	}
	if snap.Chains["eos"].Summary.Blocks != 10 {
		t.Fatalf("drained snapshot blocks = %d, want 10", snap.Chains["eos"].Summary.Blocks)
	}
}

// TestPublishDoesNoPerTradeWork: a publish deep-copies what /v1/summary
// returns and renders nothing, so its cost does not grow with what only
// the paper's sections read. An EOS kit holding 1,000 settled trades
// between distinct accounts publishes with exactly the allocations of one
// holding 10.
func TestPublishDoesNoPerTradeWork(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		allocs := func(trades int) float64 {
			p, kit, _ := newEOSPublisher(t)
			txs := make([]wire.EOSTrx, trades)
			for i := range txs {
				buyer, seller := fmt.Sprintf("buyer%d", i), fmt.Sprintf("seller%d", i)
				txs[i].Actions = []wire.EOSAction{{
					Account: "whaleextrust", Name: "verifytrade2", Actor: buyer,
					Buyer: buyer, Seller: seller, Quantity: "1.0000 EOS",
				}}
			}
			block := &wire.EOSBlock{Timestamp: "2019-10-02T00:00:00.000", Transactions: txs}
			if err := kit.Decoder.IngestBatch([]any{block}); err != nil {
				t.Fatal(err)
			}
			if got := len(kit.State().(*core.EOSShard).Trades); got != trades {
				t.Fatalf("kit holds %d trades, want %d", got, trades)
			}
			p.Publish()
			return testing.AllocsPerRun(50, func() { p.Publish() })
		}
		few, many := allocs(10), allocs(1000)
		if few != many {
			t.Fatalf("Publish allocates %.1f times over 10 trades and %.1f over 1,000: it does per-trade work", few, many)
		}
	})
}

// TestPublishDoesNoPerBucketWork: a summary's bucket totals are summed in
// place into one slice, so a publish costs the same however many 6 h
// buckets the chain's blocks span. Two EOS kits holding the same 800
// blocks, one inside a single bucket and one a bucket apart each, publish
// with equal allocations.
func TestPublishDoesNoPerBucketWork(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		allocs := func(step time.Duration) float64 {
			p, kit, _ := newEOSPublisher(t)
			blocks := eosBlocks(800, 1)
			base := time.Date(2019, time.October, 2, 0, 0, 0, 0, time.UTC)
			for i, b := range blocks {
				b.(*wire.EOSBlock).Timestamp = base.Add(time.Duration(i) * step).Format(wire.EOSTimestampLayout)
			}
			if err := kit.Decoder.IngestBatch(blocks); err != nil {
				t.Fatal(err)
			}
			p.Publish()
			return testing.AllocsPerRun(50, func() { p.Publish() })
		}
		one, many := allocs(time.Second), allocs(6*time.Hour)
		if one != many {
			t.Fatalf("Publish allocates %.1f times over 1 bucket and %.1f over 800: it does per-bucket work", one, many)
		}
	})
}

// TestPublishCarriesDrainedChainForward: once a snapshot shows a chain
// drained, later publishes reuse its ChainStatus instead of calling its
// summarize hook again, and serve the same bytes for it; a chain still
// ingesting beside it is summarized on every publish.
func TestPublishCarriesDrainedChainForward(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		p := NewPublisher()
		w := core.Window{Origin: chain.ObservationStart, Bucket: 6 * time.Hour}
		calls := map[string]int{} // written only under the publisher's mutex
		register := func(name string) (core.StatsKit, func()) {
			kit, err := core.NewStatsKit(name, w.Origin, w.Bucket)
			if err != nil {
				t.Fatal(err)
			}
			release, err := p.Register(name, w, func() core.ChainSummary {
				calls[name]++
				return kit.Summarize()
			})
			if err != nil {
				t.Fatal(err)
			}
			return kit, release
		}
		eos, releaseEOS := register("eos")
		_, releaseLive := register("tezos")
		defer releaseLive()
		if err := eos.Decoder.IngestBatch(eosBlocks(20, 1)); err != nil {
			t.Fatal(err)
		}
		p.Publish()
		releaseEOS() // marks eos drained and publishes
		drained := p.Current()
		if st := drained.Chains["eos"]; !st.Drained || st.Summary.Blocks != 20 {
			t.Fatalf("released chain: drained %v, %d blocks", st.Drained, st.Summary.Blocks)
		}
		h := NewHandler(p)
		figures := get(t, h, "/v1/figures").Body.String()
		eosCalls, liveCalls := calls["eos"], calls["tezos"]
		const later = 5
		for range later {
			p.Publish()
		}
		snap := p.Current()
		if snap.Epoch != drained.Epoch+later {
			t.Fatalf("epoch %d after %d publishes past %d", snap.Epoch, later, drained.Epoch)
		}
		if got := calls["eos"]; got != eosCalls {
			t.Errorf("drained chain summarized %d more times", got-eosCalls)
		}
		if got := calls["tezos"]; got != liveCalls+later {
			t.Errorf("live chain summarized %d times over %d publishes", got-liveCalls, later)
		}
		if !reflect.DeepEqual(snap.Chains["eos"], drained.Chains["eos"]) {
			t.Errorf("drained chain's status changed:\n%+v\nthen\n%+v", drained.Chains["eos"], snap.Chains["eos"])
		}
		if got := get(t, h, "/v1/figures").Body.String(); got != figures {
			t.Errorf("/v1/figures changed after the chain drained:\n%s\nthen\n%s", figures, got)
		}
	})
}

// TestPublishCarriesDrainedRepliesForward: a drained chain's response
// bytes are built once, not once per epoch. Every later epoch serves the
// very figures text the first read built, and off the race detector (whose
// sync.Pool drops items at random) a publish followed by GET
// /v1/figures/eos costs what a publish followed by GET /healthz does — the
// new epoch's stamp, which every route pays — plus what the figures route
// costs over /healthz on a held epoch. (When every epoch re-rendered the
// chain's figures the first pair took 35 allocations against 12 for the
// second.)
func TestPublishCarriesDrainedRepliesForward(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		p, kit, release := newEOSPublisher(t)
		if err := kit.Decoder.IngestBatch(eosBlocks(200, 1)); err != nil {
			t.Fatal(err)
		}
		release()
		h := NewHandler(p)
		w := &discardWriter{h: http.Header{}}
		figures := httptest.NewRequest("GET", "/v1/figures/eos", nil)
		healthz := httptest.NewRequest("GET", "/healthz", nil)
		built := func() []byte {
			t.Helper()
			c, ok := p.Current().chain("eos")
			if !ok {
				t.Fatal("snapshot has no eos chain")
			}
			return c.figuresText()
		}
		first := built()
		for range 3 {
			p.Publish()
			if again := built(); &again[0] != &first[0] {
				t.Fatalf("epoch %d built the drained chain's figures again", p.Current().Epoch)
			}
		}
		if testkit.Race {
			return
		}
		held := testing.AllocsPerRun(50, func() { h.ServeHTTP(w, figures) }) -
			testing.AllocsPerRun(50, func() { h.ServeHTTP(w, healthz) })
		stamp := testing.AllocsPerRun(50, func() { p.Publish(); h.ServeHTTP(w, healthz) })
		fresh := testing.AllocsPerRun(50, func() { p.Publish(); h.ServeHTTP(w, figures) })
		if fresh > stamp+held {
			t.Fatalf("Publish + GET /v1/figures/eos: %.1f allocs, want at most %.1f (Publish + GET /healthz) + %.1f (the route on a held epoch): the drained chain's figures were built again",
				fresh, stamp, held)
		}
	})
}

func TestRunPublishesFinalEpochOnCancel(t *testing.T) {
	p, kit, release := newEOSPublisher(t)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		p.Run(ctx, time.Hour) // interval never fires; only the final publish
		close(done)
	}()
	if err := kit.Decoder.IngestBatch(eosBlocks(3, 1)); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done
	snap := p.Current()
	if snap.Epoch == 0 {
		t.Fatal("Run exited without a final publish")
	}
	if got := snap.Chains["eos"].Summary.Blocks; got != 3 {
		t.Fatalf("final epoch blocks = %d, want 3", got)
	}
}

// TestSnapshotImmutableUnderConcurrentIngest is the serving layer's core
// property: a held snapshot's renders stay byte-identical no matter how
// many epochs writers publish past it. N writers hammer the aggregate and
// publish concurrently while M readers hold old snapshots and re-render
// them; any copy-on-write violation shows up as a byte diff here or as a
// data race under -race.
func TestSnapshotImmutableUnderConcurrentIngest(t *testing.T) {
	p, kit, release := newEOSPublisher(t)

	const (
		writers    = 4
		readers    = 4
		iterations = 40
		batch      = 8
	)
	var wg sync.WaitGroup
	writersDone := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				// Disjoint block ranges per writer per iteration.
				start := int64(w)*1_000_000 + int64(i)*batch + 1
				if err := kit.Decoder.IngestBatch(eosBlocks(batch, start)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				p.Publish()
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(writersDone)
	}()

	type held struct {
		snap    *Snapshot
		figures string
	}
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			var holds []held
			var lastEpoch uint64
			check := func() bool {
				for _, h := range holds {
					if got := h.snap.RenderFigures(); got != h.figures {
						t.Errorf("held snapshot (epoch %d) render changed:\nwas:\n%s\nnow:\n%s",
							h.snap.Epoch, h.figures, got)
						return false
					}
				}
				return true
			}
			for {
				select {
				case <-writersDone:
					check()
					return
				default:
				}
				snap := p.Current()
				if snap.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", snap.Epoch, lastEpoch)
					return
				}
				lastEpoch = snap.Epoch
				holds = append(holds, held{snap, snap.RenderFigures()})
				if len(holds) > 16 {
					holds = holds[1:]
				}
				if !check() {
					return
				}
			}
		}()
	}
	readerWG.Wait()

	release()
	final := p.Current()
	if !final.Drained {
		t.Fatal("not drained after release")
	}
	want := int64(writers * iterations * batch)
	if got := final.Chains["eos"].Summary.Blocks; got != want {
		t.Fatalf("final blocks = %d, want %d", got, want)
	}
	// The drained snapshot renders exactly what a fresh summarize renders:
	// publishing never perturbs the aggregate itself.
	if final.RenderFigures() != kit.Summarize().Render() {
		t.Fatal("drained snapshot render differs from a direct summarize")
	}
}

// memFetcher serves pre-marshaled blocks [1, len(raws)].
type memFetcher struct{ raws [][]byte }

func (f *memFetcher) Head(context.Context) (int64, error) { return int64(len(f.raws)), nil }

func (f *memFetcher) FetchBlock(_ context.Context, num int64) ([]byte, error) {
	if num < 1 || num > int64(len(f.raws)) {
		return nil, fmt.Errorf("memFetcher: no block %d", num)
	}
	return f.raws[num-1], nil
}

// TestFeedSizesNoFootprint: a live feed serves figures, never Figure 2's
// gzip column, so it must not deflate what it crawls to size it.
func TestFeedSizesNoFootprint(t *testing.T) {
	const blocks = 24
	var raws [][]byte
	for _, blk := range eosBlocks(blocks, 1) {
		raw, err := json.Marshal(blk)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	p := NewPublisher()
	res, err := p.Feed(context.Background(), &memFetcher{raws},
		collect.CrawlConfig{From: 1, To: blocks, Workers: 2}, FeedConfig{Chain: "eos"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != blocks || res.RawBytes == 0 || res.GzipBytes != 0 {
		t.Fatalf("live feed: blocks=%d raw=%d gzip=%d, want %d blocks, raw counted, no footprint", res.Blocks, res.RawBytes, res.GzipBytes, blocks)
	}
	if got := p.Current().Chains["eos"].Summary.Blocks; got != blocks {
		t.Fatalf("drained feed serves %d blocks, want %d", got, blocks)
	}
}
