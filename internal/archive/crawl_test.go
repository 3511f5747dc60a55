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
// SegmentBlocks 1 every Append after the first publishes the segment the
// one before it sealed, so it sees who appended.
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
// by a fetch worker, which publishes every segment but the one Close does —
// and the stream reports no footprint of its own.
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
	c, err := OpenCrawl(WriterConfig{Store: store, Chain: "eos", SegmentBlocks: 1}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Attach(live)
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
	if err := c.Close(); err != nil { // publishes the last block's segment here
		t.Fatal(err)
	}
	closer := goid()

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
	if len(store.appenders) != 2 || store.appenders[closer] != 1 {
		t.Fatalf("segments published on %v, want the one tee stage and one by Close on goroutine %d", store.appenders, closer)
	}
	for id, n := range store.appenders {
		if id == closer {
			continue
		}
		if n != heldFrom-2 {
			t.Fatalf("tee stage published %d segments, want %d", n, heldFrom-2)
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
	if _, err := OpenCrawl(WriterConfig{Dir: dir, Chain: "xrp"}, 1, 12); err == nil || !strings.Contains(err.Error(), `chain "eos"`) {
		t.Fatalf("opening an eos archive for an xrp crawl: %v", err)
	}
	editManifest(t, dir, func(m *Manifest) { m.Segments[0].SHA256 = strings.Repeat("0", 64) })
	if _, err := OpenCrawl(WriterConfig{Dir: dir, Chain: "eos"}, 1, 12); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("opening a damaged archive: %v", err)
	}
}

// TestOpenCrawlRefusesBlocksOutsideRange: a crawl resumes only into an
// archive whose blocks all lie inside its range. An archive of [1, 12]
// refuses a narrower crawl — its replay would fold blocks the crawl never
// folds — below from always, and above to only when to is concrete.
func TestOpenCrawlRefusesBlocksOutsideRange(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir, "eos", 12, 4)
	for _, r := range []struct {
		from, to int64
		refused  bool
	}{
		{1, 12, false}, {1, 0, false}, {1, 20, false},
		{5, 12, true}, {5, 0, true}, {1, 11, true},
	} {
		c, err := OpenCrawl(WriterConfig{Dir: dir, Chain: "eos"}, r.from, r.to)
		if !r.refused {
			if err != nil {
				t.Fatalf("crawl of [%d, %d] over an archive of [1, 12]: %v", r.from, r.to, err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "covers [1, 12]") || !strings.Contains(err.Error(), "delete the archive") {
			t.Fatalf("crawl of [%d, %d] over an archive of [1, 12]: %v, want a refusal naming the archive's range", r.from, r.to, err)
		}
	}
}

// fiveSegments archives blocks [1, 10] as five two-block segments in a
// fresh memory store, and zeroes its counters.
func fiveSegments(t *testing.T) *blobstore.Memory {
	t.Helper()
	st := blobstore.NewMemory()
	w, err := NewWriter(WriterConfig{Dir: st.URL(), Chain: "eos", SegmentBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(10); num >= 1; num-- {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st.ResetOps()
	return st
}

// TestOpenCrawlReadsTheLocationOnce: a resuming open reads the manifest
// once and each covering segment once — the Writer that appends extends
// the manifest the Reader verified, instead of loading it again.
func TestOpenCrawlReadsTheLocationOnce(t *testing.T) {
	st := fiveSegments(t)
	c, err := OpenCrawl(WriterConfig{Dir: st.URL(), Chain: "eos"}, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Held(); got != 10 {
		t.Fatalf("crawl holds %d blocks, want 10", got)
	}
	if got := st.Ops(blobstore.OpGet); got != 6 {
		t.Fatalf("resuming open made %d store gets, want 6: the manifest and each of 5 segments once", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrawlFullReplayWritesNothing: a Crawl whose location holds its whole
// range needs no live source; it serves every block from storage in
// caller-owned buffers, and its Close writes nothing, so a replay runs
// from a location it may not write to. A fresh location that archived
// nothing still manifests the empty archive.
func TestCrawlFullReplayWritesNothing(t *testing.T) {
	st := fiveSegments(t)
	c, err := OpenCrawl(WriterConfig{Dir: st.URL(), Chain: "eos"}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !c.OwnsRaw() {
		t.Fatal("a full replay stopped handing out caller-owned buffers")
	}
	blocks, h := collect.Stream(context.Background(), c, collect.CrawlConfig{From: 1, To: 10, Workers: 2, Tee: c.Tee})
	delivered := 0
	for b := range blocks {
		if want := string(payload(b.Num)); string(b.Raw) != want {
			t.Fatalf("block %d delivered %q, want %q", b.Num, b.Raw, want)
		}
		delivered++
		b.Release()
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if delivered != 10 || c.Teed() != 0 {
		t.Fatalf("replay delivered %d blocks and teed %d, want 10 and 0", delivered, c.Teed())
	}
	if got := st.Ops(blobstore.OpPut); got != 0 {
		t.Fatalf("full replay made %d store puts, want 0", got)
	}

	fresh := blobstore.NewMemory()
	c, err = OpenCrawl(WriterConfig{Dir: fresh.URL(), Chain: "eos"}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenWith(fresh.URL(), OpenOptions{})
	if err != nil {
		t.Fatalf("a fresh location that archived nothing left no archive: %v", err)
	}
	if rd.Blocks() != 0 {
		t.Fatalf("the empty archive holds %d blocks", rd.Blocks())
	}
}

// TestCrawlWalkLoadsOnlyTheUncachedSegment: Open keeps the payloads of the
// segments holding the highest blocks, where a crawl's walk starts, in
// whichever order the archive lists them, and the stride workers that miss
// the one segment left out load it together, once. Blocks [1, 100] sit in
// five 20-block segments; with 4 workers and a 1-block buffer the stream
// fetches no block more than 10 below the newest undelivered one, so a
// fetch in the lowest segment comes after every block of the three highest
// was delivered, and the segment it evicts is one of those. Replay, which
// IngestArchive drives, loads that same one segment.
func TestCrawlWalkLoadsOnlyTheUncachedSegment(t *testing.T) {
	for _, descending := range []bool{true, false} {
		st := blobstore.NewMemory()
		w, err := NewWriter(WriterConfig{Dir: st.URL(), Chain: "eos", SegmentBlocks: 20})
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 100; k++ {
			num := k + 1
			if descending {
				num = 100 - k
			}
			if err := w.Append(num, payload(num)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		c, err := OpenCrawl(WriterConfig{Dir: st.URL(), Chain: "eos"}, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		st.ResetOps()
		blocks, h := collect.Stream(context.Background(), c, collect.CrawlConfig{From: 1, To: 100, Workers: 4, Buffer: 1, Tee: c.Tee})
		delivered := 0
		for b := range blocks {
			delivered++
			b.Release()
		}
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if delivered != 100 {
			t.Fatalf("descending=%v: walk delivered %d blocks, want 100", descending, delivered)
		}
		if got := st.Ops(blobstore.OpGet); got != 1 {
			t.Errorf("descending=%v: the crawl's walk made %d store gets after the open, want 1: the one segment Open did not keep", descending, got)
		}

		rd, err := OpenWith(st.URL(), OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st.ResetOps()
		if err := rd.Replay(context.Background(), 4, func(int, int64, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if got := st.Ops(blobstore.OpGet); got != 1 {
			t.Errorf("descending=%v: Replay made %d store gets after the open, want 1", descending, got)
		}
	}
}
