package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/eos"
	"repro/internal/retry"
	"repro/internal/rpcserve"
	"repro/internal/testkit"
)

// eosFixture serves a deterministic EOS chainsim over HTTP and counts
// get_block requests, optionally cancelling a context after the limit-th
// one — the in-process stand-in for a worker killed mid-crawl.
type eosFixture struct {
	srv *httptest.Server

	mu        sync.Mutex
	fetched   map[int64]int
	served    int
	limit     int
	interrupt context.CancelFunc
}

func newEOSFixture(t *testing.T, nBlocks int) *eosFixture {
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

	f := &eosFixture{fetched: make(map[int64]int)}
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
			f.served++
			if f.limit > 0 && f.served == f.limit && f.interrupt != nil {
				f.interrupt()
			}
			f.mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *eosFixture) armInterrupt(after int, cancel context.CancelFunc) {
	f.mu.Lock()
	f.served, f.limit, f.interrupt = 0, after, cancel
	f.mu.Unlock()
}

func (f *eosFixture) kit(t *testing.T) core.StatsKit {
	t.Helper()
	kit, err := core.NewStatsKit("eos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return kit
}

func (f *eosFixture) fetcher() collect.BlockFetcher { return collect.NewEOSClient(f.srv.URL) }

// head resolves the chain head once, the way a coordinator pins ranges.
func (f *eosFixture) head(t *testing.T) int64 {
	t.Helper()
	h, err := f.fetcher().Head(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// oracle crawls [1, to] in one process and renders the figures — the
// byte-identity reference every distributed result is diffed against.
func (f *eosFixture) oracle(t *testing.T, to int64) string {
	t.Helper()
	kit := f.kit(t)
	_, _, err := core.IngestCrawl(context.Background(), f.fetcher(),
		collect.CrawlConfig{From: 1, To: to, Workers: 4},
		kit.Decoder, core.IngestConfig{})
	if err != nil {
		t.Fatalf("oracle crawl: %v", err)
	}
	return kit.Summarize().Render()
}

// cancelAfterCheckpoint returns an AfterCheckpoint hook that cancels once
// the k-th checkpoint has been written, recording what it covered.
func cancelAfterCheckpoint(k int, cancel context.CancelFunc, covered *core.BlockRange) func(core.BlockRange) {
	n := 0
	return func(cov core.BlockRange) {
		if n++; n == k {
			if covered != nil {
				*covered = cov
			}
			cancel()
		}
	}
}

// TestRunShardCrawlKillResume: a worker killed mid-crawl (fresh process =
// fresh kit) resumes from its blob-store checkpoint, refetches only the
// interrupted chunk, and the finished shard is byte-identical to an
// uninterrupted worker's. The killed worker's fetches are gated chunk by
// chunk, so its second checkpoint exists however fast the crawl runs.
func TestRunShardCrawlKillResume(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const blocks = 60
		fx := newEOSFixture(t, blocks)
		head := fx.head(t)
		store := blobstore.NewMemory()

		mkCfg := func(kit core.StatsKit) CrawlerConfig {
			return CrawlerConfig{
				Kit: kit, Fetcher: fx.fetcher(),
				From: 1, To: head, Store: store,
				CheckpointEvery: 10, Workers: 2,
			}
		}

		// First run: killed right after its second checkpoint landed — the
		// recoverable instant AfterCheckpoint exposes. The kit dies with the run.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		killed := mkCfg(fx.kit(t))
		gate := newChunkGate(head, killed.CheckpointEvery)
		killed.Fetcher = gate.fetcher(killed.Fetcher)
		var second core.BlockRange
		killed.AfterCheckpoint = gate.after(cancelAfterCheckpoint(2, cancel, &second))
		if _, err := RunShardCrawl(ctx, killed); err == nil {
			t.Fatal("interrupted run reported success")
		}
		if _, err := store.Get(context.Background(), CheckpointKey("eos", 1, head)); err != nil {
			t.Fatalf("no checkpoint survived the kill: %v", err)
		}

		// Second run: fresh kit (the crash lost all memory), same store.
		fx.armInterrupt(0, nil)
		fx.mu.Lock()
		fx.fetched = make(map[int64]int)
		fx.mu.Unlock()
		out, err := RunShardCrawl(context.Background(), mkCfg(fx.kit(t)))
		if err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		if !out.Resumed.Known() {
			t.Fatal("second run did not resume from the checkpoint")
		}
		// An interrupted worker leaves the longest complete prefix it held:
		// never less than the checkpoint it was killed after.
		if out.Resumed.To != head || out.Resumed.From > second.From {
			t.Fatalf("resumed from %s, want at least the checkpoint the kill followed, %s", out.Resumed, second)
		}

		// Zero double-ingest: the resumed run must not have refetched any
		// block of a checkpointed chunk.
		fx.mu.Lock()
		for num := out.Resumed.From; num <= out.Resumed.To; num++ {
			if fx.fetched[num] > 0 {
				fx.mu.Unlock()
				t.Fatalf("resume refetched block %d, inside the checkpointed range %s", num, out.Resumed)
			}
		}
		fx.mu.Unlock()

		// The checkpoint is gone and the shard matches an uninterrupted run.
		if _, err := store.Get(context.Background(), CheckpointKey("eos", 1, head)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("finished run left its checkpoint behind (err %v)", err)
		}
		raw, err := store.Get(context.Background(), out.ShardKey)
		if err != nil {
			t.Fatalf("emitted shard missing: %v", err)
		}
		st, err := core.DecodeShard(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := st.Summary().Render(), fx.oracle(t, head); got != want {
			t.Errorf("resumed shard figures differ from oracle:\n--- got ---\n%s--- want ---\n%s", got, want)
		}
	})
}

// TestRunShardCrawlTornCheckpoint is the crash-window property test: a
// checkpoint blob truncated at EVERY byte boundary either refuses loudly
// or (at full length) loads intact. No truncation may silently start the
// slice over — that is how blocks get double-counted.
func TestRunShardCrawlTornCheckpoint(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const blocks = 30
		fx := newEOSFixture(t, blocks)
		head := fx.head(t)
		store := blobstore.NewMemory()

		// Produce a real checkpoint by interrupting a chunked run, gated so
		// the first chunk's checkpoint is written before the rest complete.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		gate := newChunkGate(head, 8)
		cfg := CrawlerConfig{
			Kit: fx.kit(t), Fetcher: gate.fetcher(fx.fetcher()),
			From: 1, To: head, Store: store,
			CheckpointEvery: 8, Workers: 2,
			AfterCheckpoint: gate.after(cancelAfterCheckpoint(1, cancel, nil)),
		}
		if _, err := RunShardCrawl(ctx, cfg); err == nil {
			t.Fatal("interrupted run reported success")
		}
		key := CheckpointKey("eos", 1, head)
		intact, err := store.Get(context.Background(), key)
		if err != nil {
			t.Fatalf("no checkpoint to tear: %v", err)
		}

		for cut := 0; cut < len(intact); cut++ {
			if err := store.Put(context.Background(), key, intact[:cut]); err != nil {
				t.Fatal(err)
			}
			// The fetcher is never reached: the torn checkpoint must stop the
			// worker before any crawling.
			_, err := RunShardCrawl(context.Background(), CrawlerConfig{
				Kit: fx.kit(t), Fetcher: nil,
				From: 1, To: head, Store: store,
				CheckpointEvery: 8,
			})
			if err == nil {
				t.Fatalf("checkpoint torn at byte %d/%d loaded silently", cut, len(intact))
			}
			if !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("checkpoint torn at byte %d: error %v does not refuse loudly", cut, err)
			}
		}
	})
}

// TestRunShardCrawlForeignCheckpointRefused: a checkpoint covering a
// range outside the worker's slice (operator error: two slices sharing a
// key) is refused, not merged.
func TestRunShardCrawlForeignCheckpoint(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		fx := newEOSFixture(t, 10)
		head := fx.head(t)
		store := blobstore.NewMemory()

		// Encode a state claiming a DIFFERENT slice under this slice's key.
		kit := fx.kit(t)
		st := kit.State()
		st.SetCovered(core.BlockRange{From: head + 5, To: head + 20})
		if err := store.Put(context.Background(), CheckpointKey("eos", 1, head), st.EncodeTo(nil, 0)); err != nil {
			t.Fatal(err)
		}
		_, err := RunShardCrawl(context.Background(), CrawlerConfig{
			Kit: fx.kit(t), Fetcher: nil, From: 1, To: head, Store: store,
		})
		if err == nil || !strings.Contains(err.Error(), "outside this worker's slice") {
			t.Fatalf("foreign checkpoint accepted: %v", err)
		}
	})
}

// inProcessWorker adapts RunShardCrawl to the coordinator's Run hook.
func inProcessWorker(fx *eosFixture, store blobstore.Store, every int64) func(context.Context, Task) error {
	return func(ctx context.Context, task Task) error {
		kit, err := core.NewStatsKit(task.Chain, chain.ObservationStart, 6*time.Hour)
		if err != nil {
			return err
		}
		_, rerr := RunShardCrawl(ctx, CrawlerConfig{
			Kit: kit, Fetcher: fx.fetcher(),
			From: task.From, To: task.To, Store: store,
			CheckpointEvery: every, Workers: 2,
			Fence: task.Fence,
		})
		return rerr
	}
}

// TestCoordinatorChaos is the in-process chaos harness: store faults on
// every op class plus one worker that dies mid-crawl on its first
// attempt. The coordinator must retry/resume until every slice lands and
// the merged figures must be byte-identical to the single-process oracle.
func TestCoordinatorChaos(t *testing.T) {
	testkit.Repeat(t, 100, func(t *testing.T) {
		const blocks = 60
		fx := newEOSFixture(t, blocks)
		head := fx.head(t)

		faulty := blobstore.NewFaulty(blobstore.NewMemory())
		faulty.Chaos(7, 0.03)

		// Slice 2's first attempt dies mid-crawl: its context is cut after a
		// handful of blocks, losing its in-memory aggregate. Later attempts
		// run clean and must resume from the checkpoint.
		var killOnce sync.Once
		run := inProcessWorker(fx, faulty, 5)
		chaosRun := func(ctx context.Context, task Task) error {
			if task.Index == 2 {
				var killed bool
				killOnce.Do(func() {
					killed = true
					kctx, cancel := context.WithCancel(ctx)
					defer cancel()
					fx.armInterrupt(5, cancel)
					if err := run(kctx, task); err == nil {
						t.Error("killed worker attempt reported success")
					}
					fx.armInterrupt(0, nil)
				})
				if killed {
					return fmt.Errorf("worker killed (simulated SIGKILL)")
				}
			}
			return run(ctx, task)
		}

		res, err := Run(context.Background(), Config{
			Chain: "eos", From: 1, To: head, Shards: 3,
			Store:    faulty,
			Owner:    "chaos-test",
			LeaseTTL: time.Minute,
			Retry:    retry.Policy{Attempts: 8, Base: time.Millisecond},
			Run:      chaosRun,
		})
		if err != nil {
			t.Fatalf("coordinator under chaos: %v", err)
		}
		if len(res.Completed) != 3 || len(res.Failed) != 0 {
			t.Fatalf("completed %d, failed %d, want 3/0", len(res.Completed), len(res.Failed))
		}
		if !res.Report.Complete || len(res.Report.Missing) != 0 {
			t.Fatalf("complete run's gap report: %+v", res.Report)
		}
		if got, want := res.Merged.Summary().Render(), fx.oracle(t, head); got != want {
			t.Errorf("chaos-merged figures differ from oracle:\n--- got ---\n%s--- want ---\n%s", got, want)
		}
		// The finished run retired every lease record (tolerate one injected
		// fault on this List).
		if keys, lerr := faulty.List(context.Background(), leasePrefix); lerr == nil && len(keys) != 0 {
			t.Errorf("leases left behind: %v", keys)
		}
	})
}

// leaseDeleteFault fails the first Delete of every lease key once — the
// single store fault that would leak a record retired without retries.
type leaseDeleteFault struct {
	blobstore.Store
	mu     sync.Mutex
	failed map[string]bool
}

func (s *leaseDeleteFault) Delete(ctx context.Context, key string) error {
	s.mu.Lock()
	first := strings.HasPrefix(key, leasePrefix) && !s.failed[key]
	if first {
		s.failed[key] = true
	}
	s.mu.Unlock()
	if first {
		return fmt.Errorf("injected fault deleting %s", key)
	}
	return s.Store.Delete(ctx, key)
}

// TestCoordinatorReleaseRetriesStoreFault: retiring a finished run's lease
// records is a store write like any other and runs under the retry policy
// — one failed Delete per lease (run lease and every task lease) must cost
// a retry, not leave records behind.
func TestCoordinatorReleaseRetriesStoreFault(t *testing.T) {
	fx := newEOSFixture(t, 20)
	head := fx.head(t)
	store := &leaseDeleteFault{Store: blobstore.NewMemory(), failed: make(map[string]bool)}
	res, err := Run(context.Background(), Config{
		Chain: "eos", From: 1, To: head, Shards: 2,
		Store:    store,
		LeaseTTL: time.Minute,
		Retry:    retry.Policy{Attempts: 3, Base: time.Millisecond},
		Run:      inProcessWorker(fx, store, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Complete {
		t.Fatalf("gap report: %+v", res.Report)
	}
	if len(store.failed) != 3 {
		t.Fatalf("faulted %d lease deletes, want the run lease and 2 task leases: %v", len(store.failed), store.failed)
	}
	keys, err := store.List(context.Background(), leasePrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("leases left behind: %v", keys)
	}
}

// TestCoordinatorGapReport: a slice whose worker fails every attempt
// exhausts its retries; the run errors but still merges the completed
// slices and reports exactly the missing range.
func TestCoordinatorGapReport(t *testing.T) {
	const blocks = 30
	fx := newEOSFixture(t, blocks)
	head := fx.head(t)
	store := blobstore.NewMemory()

	run := inProcessWorker(fx, store, 0)
	res, err := Run(context.Background(), Config{
		Chain: "eos", From: 1, To: head, Shards: 3,
		Store: store,
		Retry: retry.Policy{Attempts: 2, Base: time.Millisecond},
		Run: func(ctx context.Context, task Task) error {
			if task.Index == 2 {
				return fmt.Errorf("endpoint permanently dark")
			}
			return run(ctx, task)
		},
	})
	if err == nil {
		t.Fatal("run with a dead slice reported success")
	}
	if len(res.Completed) != 2 || len(res.Failed) != 1 {
		t.Fatalf("completed %d, failed %d, want 2/1", len(res.Completed), len(res.Failed))
	}
	if res.Merged == nil {
		t.Fatal("no partial figures despite 2 completed slices")
	}
	failed := res.Failed[0].Task
	if res.Report.Complete || len(res.Report.Missing) != 1 {
		t.Fatalf("gap report: %+v", res.Report)
	}
	if g := res.Report.Missing[0]; g.From != failed.From || g.To != failed.To {
		t.Errorf("gap [%d, %d], want the failed slice [%d, %d]", g.From, g.To, failed.From, failed.To)
	}
	if len(res.Report.Failures) != 1 || !strings.Contains(res.Report.Failures[0].Error, "permanently dark") {
		t.Errorf("report failures: %+v", res.Report.Failures)
	}

	// The report is valid JSON with the documented shape.
	var buf bytes.Buffer
	if err := res.Report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round GapReport
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("gap report does not round-trip: %v\n%s", err, buf.String())
	}
	if round.Chain != "eos" || round.Complete || len(round.Missing) != 1 {
		t.Errorf("round-tripped report: %+v", round)
	}
}

// TestCoordinatorAllSlicesFail: nothing completes, the report covers the
// whole range, and no merged state is claimed.
func TestCoordinatorAllSlicesFail(t *testing.T) {
	store := blobstore.NewMemory()
	res, err := Run(context.Background(), Config{
		Chain: "eos", From: 1, To: 90, Shards: 3,
		Store: store,
		Retry: retry.Policy{Attempts: 2, Base: time.Millisecond},
		Run: func(ctx context.Context, task Task) error {
			return fmt.Errorf("no endpoint")
		},
	})
	if err == nil {
		t.Fatal("total failure reported success")
	}
	if res.Merged != nil || len(res.Completed) != 0 {
		t.Fatalf("result claims progress: %+v", res)
	}
	if len(res.Report.Missing) != 1 || res.Report.Missing[0].From != 1 || res.Report.Missing[0].To != 90 {
		t.Fatalf("gap report should cover the whole range: %+v", res.Report)
	}
}

// TestCoordinatorFoldBelievesTheStore: the final fold reuses what
// validation decoded only for blobs the store still holds byte for byte.
// A shard rewritten after its validation (a zombie's late, unfenced put)
// and a stray shard nobody validated are both decoded afresh from the
// store — and refused, exactly as a join of the store would refuse them.
func TestCoordinatorFoldBelievesTheStore(t *testing.T) {
	fx := newEOSFixture(t, 45)
	head := fx.head(t)
	tamper := map[string]struct {
		after   func(t *testing.T, store blobstore.Store, done Task)
		refusal string
	}{
		"rewritten shard": {
			after: func(t *testing.T, store blobstore.Store, done Task) {
				key := shardKey(done.Name())
				raw, err := store.Get(context.Background(), key)
				if err != nil {
					t.Fatal(err)
				}
				st, err := core.DecodeShard(raw)
				if err != nil {
					t.Fatal(err)
				}
				unfenced, err := core.EncodeShard(st, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := store.Put(context.Background(), key, unfenced); err != nil {
					t.Fatal(err)
				}
			},
			refusal: "stale emission",
		},
		"stray shard": {
			after: func(t *testing.T, store blobstore.Store, done Task) {
				st := fx.kit(t).State()
				st.SetCovered(core.BlockRange{From: done.From, To: done.From + 1})
				putShard(t, store, st, 0)
			},
			refusal: "overlap",
		},
	}
	for name, tc := range tamper {
		t.Run(name, func(t *testing.T) {
			store := blobstore.NewMemory()
			var once sync.Once
			res, err := Run(context.Background(), Config{
				Chain: "eos", From: 1, To: head, Shards: 3,
				Store: store,
				Retry: retry.Policy{Attempts: 2, Base: time.Millisecond},
				Run:   inProcessWorker(fx, store, 0),
				AfterTaskDone: func(done Task) {
					once.Do(func() { tc.after(t, store, done) })
				},
			})
			if err == nil || !strings.Contains(err.Error(), tc.refusal) {
				t.Fatalf("fold over a tampered store: %v, want a refusal mentioning %q", err, tc.refusal)
			}
			if res == nil || res.Merged != nil {
				t.Fatalf("refused fold still produced figures: %+v", res)
			}
		})
	}
}

// TestCutTiles is the property the merge's gap/overlap validation leans
// on: for any range and shard count, the n slices tile [from, to] exactly
// — contiguous, disjoint, and complete — and Config.Cut hands out those
// same slices in index order.
func TestCutTiles(t *testing.T) {
	ranges := []struct{ from, to int64 }{
		{1, 1}, {1, 2}, {1, 100}, {5, 17}, {1000, 1006}, {42, 42 + 999},
	}
	for _, r := range ranges {
		span := r.to - r.from + 1
		for n := 1; int64(n) <= span && n <= 8; n++ {
			tasks, err := Config{Chain: "eos", From: r.from, To: r.to, Shards: n}.Cut()
			if err != nil || len(tasks) != n {
				t.Fatalf("%d-way Cut of [%d,%d]: %d tasks, %v", n, r.from, r.to, len(tasks), err)
			}
			next := r.from
			for i := 1; i <= n; i++ {
				lo, hi, err := cutSlice(i, n, r.from, r.to)
				if err != nil {
					t.Fatalf("cutSlice(%d/%d, [%d,%d]): %v", i, n, r.from, r.to, err)
				}
				if lo != next {
					t.Fatalf("cutSlice(%d/%d, [%d,%d]) starts at %d, want %d (gap or overlap)", i, n, r.from, r.to, lo, next)
				}
				if hi < lo {
					t.Fatalf("cutSlice(%d/%d, [%d,%d]) is empty: [%d,%d]", i, n, r.from, r.to, lo, hi)
				}
				if task := tasks[i-1]; task.Index != i || task.N != n || task.From != lo || task.To != hi {
					t.Fatalf("Cut()[%d] = %+v, want slice %d/%d [%d,%d]", i-1, task, i, n, lo, hi)
				}
				next = hi + 1
			}
			if next != r.to+1 {
				t.Fatalf("%d-way cut of [%d,%d] ends at %d, want %d", n, r.from, r.to, next-1, r.to)
			}
		}
	}
}

func TestCutErrors(t *testing.T) {
	if _, _, err := cutSlice(1, 4, 1, 3); err == nil {
		t.Fatal("cutting 3 blocks into 4 shards succeeded")
	}
	if _, _, err := cutSlice(1, 4, 10, 5); err == nil {
		t.Fatal("cutting an inverted range succeeded")
	}
	if _, _, err := cutSlice(1, 4, 0, 5); err == nil {
		t.Fatal("cutting from block 0 succeeded")
	}
	for _, shards := range []int{0, -1} {
		if _, err := (Config{From: 1, To: 10, Shards: shards}).Cut(); err == nil {
			t.Fatalf("Cut with %d shards succeeded", shards)
		}
	}
}
