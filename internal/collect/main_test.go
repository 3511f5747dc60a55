package collect

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/testkit"
)

// TestMain fails the package when a goroutine started by a test is still
// running after every test has returned: a stream owns its fetch workers
// and its tee stage, a client its connection, and each must be gone once
// Wait or Close has returned.
func TestMain(m *testing.M) { testkit.Main(m) }

// TestStreamExitsLeaveNoGoroutines: each way a stream can end — drained,
// aborted by its tee or by a hole, cancelled against a stalled consumer —
// must have
// stopped every fetch worker and the tee stage by the time Wait returns.
func TestStreamExitsLeaveNoGoroutines(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		exits := map[string]func(t *testing.T){
			"success": func(t *testing.T) {
				blocks, h := Stream(context.Background(), newMemFetcher(50, 0), CrawlConfig{Workers: 4, Buffer: 2})
				for range blocks {
				}
				if _, err := h.Wait(); err != nil {
					t.Fatal(err)
				}
			},
			"tee failure": func(t *testing.T) {
				blocks, h := Stream(context.Background(), newMemFetcher(50, 0), CrawlConfig{
					Workers: 4, Buffer: 2,
					Tee: func(num int64, _ []byte) error {
						if num <= 40 {
							return errors.New("disk full")
						}
						return nil
					},
				})
				for range blocks {
				}
				if _, err := h.Wait(); !errors.Is(err, ErrTee) {
					t.Fatalf("err = %v, want ErrTee", err)
				}
			},
			"hole": func(t *testing.T) {
				f := newMemFetcher(50, 0)
				f.fail = map[int64]bool{40: true}
				blocks, h := StreamGapless(context.Background(), f, CrawlConfig{
					Workers: 4, Buffer: 2, MaxRetries: 1, Backoff: time.Microsecond,
				})
				for range blocks {
				}
				if _, err := h.Wait(); err == nil {
					t.Fatal("gapless stream over a broken block reported success")
				}
			},
			"cancel": func(t *testing.T) {
				f := newMemFetcher(50, 0)
				ctx, cancel := context.WithCancel(context.Background())
				_, h := Stream(ctx, f, CrawlConfig{Workers: 4, Buffer: 2})
				f.waitQuiescent(t) // every worker and the stage parked on a full slot
				cancel()
				if _, err := h.Wait(); !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			},
		}
		for name, exit := range exits {
			t.Run(name, func(t *testing.T) {
				exit(t)
				// run itself returns a moment after it releases Wait.
				if leaked := testkit.Leaked(time.Second); len(leaked) > 0 {
					t.Fatalf("%d goroutine(s) still running after Wait:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
				}
			})
		}
	})
}
