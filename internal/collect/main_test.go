package collect

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
)

// TestMain fails the package when a goroutine started by a test is still
// running after every test has returned: a stream owns its fetch workers
// and its tee stage, a client its connection, and each must be gone once
// Wait or Close has returned. The race detector does not see leaks; this
// does.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(5 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "collect: %d goroutine(s) outlived the tests that started them:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines returns the stacks of goroutines other than the caller's
// and the test binary's own, giving stragglers (a connection's close
// handshake, an HTTP server noticing its listener closed) until patience
// runs out to unwind.
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

// TestStreamExitsLeaveNoGoroutines: each way a stream can end — drained,
// aborted by its tee or by a hole, cancelled against a stalled consumer —
// must have
// stopped every fetch worker and the tee stage by the time Wait returns.
func TestStreamExitsLeaveNoGoroutines(t *testing.T) {
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
			if leaked := leakedGoroutines(time.Second); len(leaked) > 0 {
				t.Fatalf("%d goroutine(s) still running after Wait:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
			}
		})
	}
}
