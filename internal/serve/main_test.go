package serve

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/testkit"
)

// TestMain fails the package when a goroutine started by a test is still
// running after every test has returned: a publisher owns its ticker, a
// feed its stream or its archive replay workers, a test server its
// connections, and each must be gone once Run, Feed, FeedArchive or Close
// has returned.
func TestMain(m *testing.M) { testkit.Main(m) }

// TestFeedArchiveExitsLeaveNoGoroutines: each way an archive feed can end
// — drained, stopped by a block that will not decode, cancelled — must
// have stopped every replay worker by the time FeedArchive returns. The
// archive is one segment fed by four workers, so the workers under test
// are the ones that share a segment.
func TestFeedArchiveExitsLeaveNoGoroutines(t *testing.T) {
	const blocks = 100
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
	cfg := FeedConfig{Ingest: core.IngestConfig{Workers: 4}}
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
			if leaked := testkit.Leaked(time.Second); len(leaked) > 0 {
				t.Fatalf("%d goroutine(s) still running after FeedArchive returned:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
			}
		})
	}
}
