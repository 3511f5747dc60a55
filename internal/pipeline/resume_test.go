package pipeline

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/eos"
	"repro/internal/rpcserve"
)

// resumeFixture is a small EOS chainsim behind a counting HTTP server.
type resumeFixture struct {
	srv *httptest.Server

	mu      sync.Mutex
	fetched map[int64]int
}

func newResumeFixture(t *testing.T, nBlocks int) *resumeFixture {
	t.Helper()
	c := eos.New(eos.DefaultConfig(1000))
	alice, bob := eos.MustName("alice"), eos.MustName("bob")
	for _, n := range []eos.Name{alice, bob} {
		if err := c.CreateAccount(n, eos.SystemAccount); err != nil {
			t.Fatal(err)
		}
		if err := c.Tokens().Transfer(eos.TokenAccount, eos.SystemAccount, n, chain.EOSAsset(1_000_0000)); err != nil {
			t.Fatal(err)
		}
		c.Resources().Stake(&c.GetAccount(n).Resources, 100_0000, 100_0000)
	}
	for i := 0; i < nBlocks; i++ {
		c.PushTransaction(eos.NewAction(eos.TokenAccount, eos.ActTransfer, alice, map[string]string{
			"from": "alice", "to": "bob", "quantity": "0.0001 EOS",
		}))
		c.ProduceBlock()
	}

	f := &resumeFixture{fetched: make(map[int64]int)}
	inner := rpcserve.NewEOSServer(c)
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/get_block") {
			body, _ := io.ReadAll(r.Body)
			var req struct {
				Num json.Number `json:"block_num_or_id"`
			}
			json.Unmarshal(body, &req)
			num, _ := req.Num.Int64()
			f.mu.Lock()
			f.fetched[num]++
			f.mu.Unlock()
			r.Body = io.NopCloser(strings.NewReader(string(body)))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *resumeFixture) resetCounts() {
	f.mu.Lock()
	f.fetched = make(map[int64]int)
	f.mu.Unlock()
}

func (f *resumeFixture) hits(num int64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fetched[num]
}

// crawlFigures runs [from, to] through the given fetcher into a fresh kit
// and renders the figures.
func crawlFigures(t *testing.T, fetcher collect.BlockFetcher, ccfg collect.CrawlConfig) string {
	t.Helper()
	kit, err := core.NewStatsKit("eos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.IngestCrawl(context.Background(), fetcher, ccfg, kit.Decoder, core.IngestConfig{}); err != nil {
		t.Fatalf("crawl: %v", err)
	}
	return kit.Summarize().Render()
}

// archiveEOS writes blocks [from, to] of the fixture's chain, fetched
// through client, into a stage archive at dir in two-block segments.
func archiveEOS(t *testing.T, client collect.BlockFetcher, dir string, from, to int64) {
	t.Helper()
	w, err := archive.NewWriter(archive.WriterConfig{Dir: dir, Chain: "eos", SegmentBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	for num := from; num <= to; num++ {
		raw, err := client.FetchBlock(context.Background(), num)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(num, raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// runEOSStage runs blocks [1, to] of the fixture's chain as the pipeline's
// "eos" stage under opts.ArchiveDir, with live as the stage's live source,
// and renders the figures it folded.
func runEOSStage(opts Options, to int64, live func(context.Context, *collect.CrawlConfig) (collect.BlockFetcher, func(), error)) (string, error) {
	r := &Result{Opts: opts.withDefaults()}
	kit := stageKit("eos", core.Window{Origin: chain.ObservationStart, Bucket: seriesBucket})
	build := func() (stagePlan, error) {
		return stagePlan{kit: kit, ccfg: collect.CrawlConfig{From: 1, To: to}, live: live}, nil
	}
	if _, _, err := r.runStage(context.Background(), "eos", build, collect.NewPool(r.Opts.Workers)); err != nil {
		return "", err
	}
	return kit.Summarize().Render(), nil
}

// TestStageResumesPartialArchive: a stage archive holding only a suffix of
// the range — what a crash mid-crawl leaves, since segments commit to the
// manifest incrementally — is resumed: archived blocks replay from storage
// (never refetched), missing blocks crawl live and extend the archive,
// figures match an all-live crawl, and the NEXT run replays entirely from
// the now-complete archive, building no live source and writing nothing.
func TestStageResumesPartialArchive(t *testing.T) {
	const total = 20
	fx := newResumeFixture(t, total)
	client := collect.NewEOSClient(fx.srv.URL)
	store := blobstore.NewMemory()

	want := crawlFigures(t, client, collect.CrawlConfig{From: 1, To: total, Workers: 2})
	// Seed the partial archive: blocks [11, 20] only, as if the teeing
	// crawl died halfway down its reverse-chronological pass.
	archiveEOS(t, client, blobstore.Join(store.URL(), "eos"), 11, total)
	fx.resetCounts()

	// Resume: archived blocks come from storage, the rest live.
	opts := DefaultOptions()
	opts.ArchiveDir = store.URL()
	got, err := runEOSStage(opts, total, func(context.Context, *collect.CrawlConfig) (collect.BlockFetcher, func(), error) {
		return client, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("resumed figures differ from all-live crawl\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	for num := int64(11); num <= total; num++ {
		if n := fx.hits(num); n != 0 {
			t.Errorf("resumed run refetched archived block %d (%d times)", num, n)
		}
	}
	for num := int64(1); num <= 10; num++ {
		if n := fx.hits(num); n != 1 {
			t.Errorf("missing block %d fetched %d times, want exactly once", num, n)
		}
	}

	// The archive now covers everything: the next run is a pure replay.
	fx.resetCounts()
	store.ResetOps()
	got, err = runEOSStage(opts, total, func(context.Context, *collect.CrawlConfig) (collect.BlockFetcher, func(), error) {
		t.Error("full archive still built a live fetcher")
		return client, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("replay figures differ from all-live crawl\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	fx.mu.Lock()
	live := len(fx.fetched)
	fx.mu.Unlock()
	if live != 0 {
		t.Errorf("pure replay still hit the network for %d blocks", live)
	}
	if n := store.Ops(blobstore.OpPut); n != 0 {
		t.Errorf("pure replay wrote to its archive (%d puts)", n)
	}
}

// firstFetchGets is a live source that notes the store's get count when the
// stream first asks it for a block.
type firstFetchGets struct {
	collect.BlockFetcher
	store *blobstore.Memory
	once  sync.Once
	gets  int64
}

func (f *firstFetchGets) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	f.once.Do(func() { f.gets = f.store.Ops(blobstore.OpGet) })
	return f.BlockFetcher.FetchBlock(ctx, num)
}

// TestResumingStageReadsTheArchiveOnce: a stage resuming into an archive
// of five two-block segments reads the manifest once and each segment once
// before its crawl starts — one open, shared by the Reader that serves the
// held blocks and the Writer that appends the rest. The archive holds the
// bottom of the range, so every crawl worker's first block is live and the
// count is taken before any held block is served.
func TestResumingStageReadsTheArchiveOnce(t *testing.T) {
	const total = 20
	fx := newResumeFixture(t, total)
	client := collect.NewEOSClient(fx.srv.URL)
	store := blobstore.NewMemory()
	archiveEOS(t, client, blobstore.Join(store.URL(), "eos"), 1, 10)
	store.ResetOps()

	opts := DefaultOptions()
	opts.ArchiveDir = store.URL()
	live := &firstFetchGets{BlockFetcher: client, store: store}
	if _, err := runEOSStage(opts, total, func(context.Context, *collect.CrawlConfig) (collect.BlockFetcher, func(), error) {
		return live, nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if live.gets != 6 {
		t.Fatalf("the resuming stage made %d store gets before crawling, want 6: the manifest and each of 5 segments once", live.gets)
	}
}

// TestStageRefusesForeignBlocks: an archive whose blocks lie outside the
// stage's range (scale or seed changed since it was written) refuses
// loudly, before any endpoint starts, instead of resuming — resuming it
// would measure a different scenario.
func TestStageRefusesForeignBlocks(t *testing.T) {
	const total = 12
	fx := newResumeFixture(t, total)
	dir := t.TempDir()
	client := collect.NewEOSClient(fx.srv.URL)
	archiveEOS(t, client, blobstore.Join(dir, "eos"), 8, total)

	opts := DefaultOptions()
	opts.ArchiveDir = dir
	// The stage now wants [1, 10]: archived blocks 11 and 12 are from a
	// bigger scenario.
	_, err := runEOSStage(opts, 10, func(context.Context, *collect.CrawlConfig) (collect.BlockFetcher, func(), error) {
		t.Error("a refused archive still built a live fetcher")
		return client, nil, nil
	})
	if err == nil || !strings.Contains(err.Error(), "delete the archive") {
		t.Fatalf("archive with out-of-range blocks resumed: %v", err)
	}
}
