package coord

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/retry"
	"repro/internal/testkit"
)

// TestMain fails the package when a goroutine started by a test is still
// running after every test has returned: a shard worker owns its stream,
// its ingest pool and its checkpointer, a coordinator its lease renewers
// and task goroutines, and each must be gone once RunShardCrawl or Run has
// returned.
func TestMain(m *testing.M) { testkit.Main(m) }

// TestWorkerExitsLeaveNoGoroutines: each way a shard worker can end —
// slice emitted, cancelled mid-crawl, stopped by a block that would not
// fetch, stopped because its coordinator lost the slice's lease — must
// have stopped the stream, the ingest workers and the checkpointer by the
// time the call returns.
func TestWorkerExitsLeaveNoGoroutines(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const from, to = 1, 120
		fx := newChainFixture("tezos", from, to)
		cfg := func(store blobstore.Store, before func(context.Context, int64) error) CrawlerConfig {
			return CrawlerConfig{
				Kit: fx.kit(t), Fetcher: fx.fetcher(before), From: from, To: to, Store: store,
				CheckpointEvery: 8, Workers: 4, Ingest: 2, Buffer: 4,
				MaxRetries: 1, Backoff: time.Microsecond,
			}
		}
		exits := map[string]func(t *testing.T){
			"success": func(t *testing.T) {
				if _, err := RunShardCrawl(context.Background(), cfg(blobstore.NewMemory(), nil)); err != nil {
					t.Fatal(err)
				}
			},
			"cancel": func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				// Gated, so a third checkpoint exists to cancel after.
				gate := newChunkGate(to, 8)
				c := cfg(blobstore.NewMemory(), gate.before)
				c.AfterCheckpoint = gate.after(cancelAfterCheckpoint(3, cancel, nil))
				if _, err := RunShardCrawl(ctx, c); !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			},
			"failed block": func(t *testing.T) {
				c := cfg(blobstore.NewMemory(), func(_ context.Context, num int64) error {
					if num == 60 {
						return errors.New("pruned")
					}
					return nil
				})
				if _, err := RunShardCrawl(context.Background(), c); err == nil {
					t.Fatal("worker over a broken block reported success")
				}
			},
			"lost lease": func(t *testing.T) {
				store := blobstore.NewMemory()
				thief := NewLeases(store, "thief", time.Minute)
				res, err := Run(context.Background(), Config{
					Chain: "tezos", From: from, To: to, Shards: 1,
					Store: store, LeaseTTL: 30 * time.Millisecond,
					Retry: retry.Policy{Attempts: 1, Base: time.Millisecond},
					Run: func(ctx context.Context, task Task) error {
						// A reclaimer overwrites the slice's lease; the worker
						// crawls on, slowly, until the next renewal notices.
						rec := LeaseRecord{Version: leaseVersion, Task: task.Name(), Owner: "thief", Nonce: "stolen", Attempt: int(task.Fence) + 1, Deadline: time.Now().Add(time.Minute)}
						if _, err := thief.put(ctx, task.Name(), rec); err != nil {
							return err
						}
						c := cfg(store, func(ctx context.Context, _ int64) error {
							select {
							case <-time.After(2 * time.Millisecond):
								return nil
							case <-ctx.Done():
								return ctx.Err()
							}
						})
						c.Workers, c.Fence = 1, task.Fence
						_, err := RunShardCrawl(ctx, c)
						return err
					},
				})
				if err == nil || len(res.Failed) != 1 {
					t.Fatalf("run whose only slice lost its lease: err %v, result %+v", err, res)
				}
				if _, err := loadShards(context.Background(), store, nil); err == nil {
					t.Fatal("the superseded worker emitted a shard")
				}
			},
		}
		for name, exit := range exits {
			t.Run(name, func(t *testing.T) {
				exit(t)
				if leaked := testkit.Leaked(time.Second); len(leaked) > 0 {
					t.Fatalf("%d goroutine(s) still running after the worker returned:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
				}
			})
		}
	})
}
