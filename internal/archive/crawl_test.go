package archive

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/collect"
)

// goid reads the calling goroutine's id off its stack header — good enough
// for a test to tell goroutines apart.
func goid() int64 {
	var buf [64]byte
	fields := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, _ := strconv.ParseInt(fields[1], 10, 64)
	return id
}

// witnessSource is a live endpoint that records which goroutines fetched
// which blocks.
type witnessSource struct {
	head    int64
	mu      sync.Mutex
	fetched map[int64]int
	workers map[int64]bool
}

func (s *witnessSource) Head(context.Context) (int64, error) { return s.head, nil }

func (s *witnessSource) FetchBlock(_ context.Context, num int64) ([]byte, error) {
	s.mu.Lock()
	s.fetched[num]++
	s.workers[goid()] = true
	s.mu.Unlock()
	return payload(num), nil
}

// putWitness records which goroutine published each segment. With
// SegmentBlocks 1 every Append publishes one, so it sees who appended.
type putWitness struct {
	blobstore.Store
	mu        sync.Mutex
	appenders map[int64]int
}

func (p *putWitness) Put(ctx context.Context, key string, data []byte) error {
	if strings.HasPrefix(key, "segment-") {
		p.mu.Lock()
		p.appenders[goid()]++
		p.mu.Unlock()
	}
	return p.Store.Put(ctx, key, data)
}

// TestCrawlStreamTeesOnlyLiveBlocksOnTheStage drives a Crawl over a partial
// archive through collect.Stream, the way every archived crawl is wired: the
// blocks the location held never reach the live endpoint or the writer, the
// live ones are appended exactly once — by the stream's one tee stage, never
// by a fetch worker — and the stream's own gzip sizer stays off.
func TestCrawlStreamTeesOnlyLiveBlocksOnTheStage(t *testing.T) {
	const total, heldFrom = 40, 25
	ctx := context.Background()
	base := blobstore.NewMemory()
	// An interrupted run kept the top of the range.
	w, err := NewWriter(WriterConfig{Store: base, Chain: "eos", SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(total); num >= heldFrom; num-- {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	live := &witnessSource{head: total, fetched: map[int64]int{}, workers: map[int64]bool{}}
	store := &putWitness{Store: base, appenders: map[int64]int{}}
	c, err := OpenCrawl(WriterConfig{Store: store, Chain: "eos", SegmentBlocks: 1}, live)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Held(); got != total-heldFrom+1 {
		t.Fatalf("crawl holds %d blocks, want %d", got, total-heldFrom+1)
	}
	blocks, h := collect.Stream(ctx, c, collect.CrawlConfig{From: 1, Workers: 4, Buffer: 4, Tee: c.Tee})
	delivered := map[int64]int{}
	for b := range blocks {
		if want := string(payload(b.Num)); string(b.Raw) != want {
			t.Fatalf("block %d delivered %q, want %q", b.Num, b.Raw, want)
		}
		delivered[b.Num]++
		b.Release()
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	for num := int64(1); num <= total; num++ {
		if delivered[num] != 1 {
			t.Fatalf("block %d delivered %d times, want once", num, delivered[num])
		}
		if wantLive := num < heldFrom; (live.fetched[num] == 1) != wantLive || live.fetched[num] > 1 {
			t.Fatalf("block %d fetched live %d times (held in the archive: %v)", num, live.fetched[num], !wantLive)
		}
	}
	if res.GzipBytes != 0 {
		t.Fatalf("stream sized %d gzip bytes beside the archive's own deflate", res.GzipBytes)
	}
	if got := c.Teed(); got != heldFrom-1 {
		t.Fatalf("crawl appended %d blocks, want the %d live ones", got, heldFrom-1)
	}
	if len(store.appenders) != 1 {
		t.Fatalf("appends ran on %d goroutines, want the one tee stage: %v", len(store.appenders), store.appenders)
	}
	for id, n := range store.appenders {
		if n != heldFrom-1 {
			t.Fatalf("tee stage published %d segments, want %d", n, heldFrom-1)
		}
		if live.workers[id] {
			t.Fatalf("goroutine %d both fetched and appended: the deflate ran on a fetch worker", id)
		}
	}

	// The location now covers the range with no record written twice, and
	// the crawl's footprint is every byte it holds, inherited or new.
	man, err := loadManifest(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	var records, stored int64
	for _, seg := range man.Segments {
		records += seg.Blocks
		size, err := base.Stat(ctx, seg.File)
		if err != nil {
			t.Fatal(err)
		}
		stored += size
	}
	if records != total {
		t.Fatalf("manifest holds %d records for %d blocks: %+v", records, total, man.Segments)
	}
	if got := c.CompressedBytes(); got != stored {
		t.Fatalf("crawl footprint %d, store holds %d", got, stored)
	}
	rd, err := OpenWith("", OpenOptions{Store: base})
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Covers(1, total) {
		t.Fatalf("resumed archive covers [%d, %d] with %d blocks", rd.From(), rd.To(), rd.Blocks())
	}
}

// TestOpenCrawlRefusesForeignOrCorruptArchive: the loud errors stay loud —
// a resume never appends to another chain's archive or reads around damage.
func TestOpenCrawlRefusesForeignOrCorruptArchive(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir, "eos", 12, 4)
	live := &witnessSource{head: 12}
	if _, err := OpenCrawl(WriterConfig{Dir: dir, Chain: "xrp"}, live); err == nil || !strings.Contains(err.Error(), `chain "eos"`) {
		t.Fatalf("opening an eos archive for an xrp crawl: %v", err)
	}
	editManifest(t, dir, func(m *Manifest) { m.Segments[0].SHA256 = strings.Repeat("0", 64) })
	if _, err := OpenCrawl(WriterConfig{Dir: dir, Chain: "eos"}, live); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("opening a damaged archive: %v", err)
	}
}
