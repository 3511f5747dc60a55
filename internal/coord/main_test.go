package coord

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/retry"
)

// TestMain fails the package when a goroutine started by a test is still
// running after every test has returned: a shard worker owns its stream,
// its ingest pool and its checkpointer, a coordinator its lease renewers
// and task goroutines, and each must be gone once RunShardCrawl or Run has
// returned. The race detector does not see leaks; this does.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(5 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "coord: %d goroutine(s) outlived the tests that started them:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines returns the stacks of goroutines other than the caller's
// and the test binary's own, giving stragglers (an HTTP server noticing its
// listener closed, a stream's run returning a moment after it releases
// Wait) until patience runs out to unwind.
func leakedGoroutines(patience time.Duration) []string {
	deadline := time.Now().Add(patience)
	for {
		// Keep-alive connections park a reader and a writer each until
		// the transport lets go of them.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		leaked := foreignGoroutines()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// foreignGoroutines snapshots every goroutine stack except the calling
// goroutine's and those the testing and profiling runtime keeps for
// itself.
func foreignGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := strings.Split(strings.TrimSpace(string(buf)), "\n\n")
	var foreign []string
	for _, s := range stacks[1:] { // the first stack is the caller's
		switch {
		case strings.Contains(s, "testing.(*M).Run"), // the main goroutine, when called from a test
			strings.Contains(s, "testing.tRunner"), // the calling test's parents, parked in t.Run
			strings.Contains(s, "os/signal."),
			strings.Contains(s, "runtime/pprof."),
			strings.Contains(s, "runtime.ensureSigM"):
		default:
			foreign = append(foreign, s)
		}
	}
	return foreign
}

// TestWorkerExitsLeaveNoGoroutines: each way a shard worker can end —
// slice emitted, cancelled mid-crawl, stopped by a block that would not
// fetch, stopped because its coordinator lost the slice's lease — must
// have stopped the stream, the ingest workers and the checkpointer by the
// time the call returns.
func TestWorkerExitsLeaveNoGoroutines(t *testing.T) {
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
			c := cfg(blobstore.NewMemory(), nil)
			c.AfterCheckpoint = cancelAfterCheckpoint(3, cancel, nil)
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
			if _, err := core.LoadShards(context.Background(), store); err == nil {
				t.Fatal("the superseded worker emitted a shard")
			}
		},
	}
	for name, exit := range exits {
		t.Run(name, func(t *testing.T) {
			exit(t)
			if leaked := leakedGoroutines(time.Second); len(leaked) > 0 {
				t.Fatalf("%d goroutine(s) still running after the worker returned:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
			}
		})
	}
}
