package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/core"
)

// TestMain fails the package when a goroutine started by a test is still
// running after every test has returned: a publisher owns its ticker, a
// feed its stream or its archive replay workers, a test server its
// connections, and each must be gone once Run, Feed, FeedArchive or Close
// has returned. The race detector does not see leaks; this does.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(5 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "serve: %d goroutine(s) outlived the tests that started them:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines returns the stacks of goroutines other than the caller's
// and the test binary's own, giving stragglers (an HTTP server noticing its
// listener closed) until patience runs out to unwind.
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

// TestFeedArchiveExitsLeaveNoGoroutines: each way an archive feed can end
// — drained, stopped by a block that will not decode, cancelled — must
// have stopped every replay worker by the time FeedArchive returns. The
// archive is one segment fed by four workers, so the workers under test
// are the ones that share a segment.
func TestFeedArchiveExitsLeaveNoGoroutines(t *testing.T) {
	const blocks = 64
	open := func(t *testing.T, breakAt int64) *archive.Reader {
		t.Helper()
		st := blobstore.NewMemory()
		w, err := archive.NewWriter(archive.WriterConfig{Store: st, Chain: "eos", SegmentBlocks: blocks})
		if err != nil {
			t.Fatal(err)
		}
		for i, blk := range eosBlocks(blocks, 1) {
			raw, err := json.Marshal(blk)
			if err != nil {
				t.Fatal(err)
			}
			if num := int64(i + 1); num == breakAt {
				raw = []byte(`{broken`)
			}
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
		return rd
	}
	cfg := FeedConfig{Ingest: core.IngestConfig{Workers: 4, Batch: 4}}
	exits := map[string]func(t *testing.T){
		"drained": func(t *testing.T) {
			n, err := NewPublisher().FeedArchive(context.Background(), open(t, 0), cfg)
			if err != nil || n != blocks {
				t.Fatalf("fed %d blocks, err %v", n, err)
			}
		},
		"visit error": func(t *testing.T) {
			if _, err := NewPublisher().FeedArchive(context.Background(), open(t, 40), cfg); err == nil {
				t.Fatal("a block that does not decode fed without error")
			}
		},
		"cancel": func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := NewPublisher().FeedArchive(ctx, open(t, 0), cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		},
	}
	for name, exit := range exits {
		t.Run(name, func(t *testing.T) {
			exit(t)
			if leaked := leakedGoroutines(time.Second); len(leaked) > 0 {
				t.Fatalf("%d goroutine(s) still running after FeedArchive returned:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
			}
		})
	}
}
