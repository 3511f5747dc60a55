package archive

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/testkit"
)

// payload fabricates a deterministic raw block body.
func payload(num int64) []byte {
	return []byte(fmt.Sprintf(`{"block_num":%d,"body":"%032d"}`, num, num))
}

// writeArchive archives blocks [1, n] (in an interleaved order, like a
// stride-sharded crawl delivers) and closes the writer.
func writeArchive(t *testing.T, dir string, chain string, n int64, segBlocks int) {
	t.Helper()
	w, err := NewWriter(WriterConfig{Dir: dir, Chain: chain, SegmentBlocks: segBlocks})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave evens-descending then odds-descending: archives record
	// arrival order, not height order.
	for num := n; num >= 1; num -= 2 {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	for num := n - 1; num >= 1; num -= 2 {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// settle waits until every member of w's sealed segment, if it has one,
// has deflated, so the next Append publishes it.
func settle(w *Writer) {
	w.mu.Lock()
	seg := w.sealed
	w.mu.Unlock()
	if seg != nil {
		seg.deflated.Wait()
	}
}

// holdTokens takes every deflate token of w, so no member deflates until
// the returned release hands them back.
func holdTokens(w *Writer) (release func()) {
	for range cap(w.deflating) {
		w.deflating <- struct{}{}
	}
	return func() {
		for range cap(w.deflating) {
			<-w.deflating
		}
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		dir := t.TempDir()
		writeArchive(t, dir, "eos", 50, 7) // several rotations
		r, err := OpenWith(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Chain() != "eos" {
			t.Fatalf("chain = %q", r.Chain())
		}
		if r.Blocks() != 50 || r.From() != 1 || r.To() != 50 {
			t.Fatalf("blocks=%d from=%d to=%d", r.Blocks(), r.From(), r.To())
		}
		if !r.Covers(1, 50) {
			t.Fatal("archive should cover [1,50]")
		}
		if r.Covers(1, 51) || r.Covers(0, 50) {
			t.Fatal("Covers accepted an uncovered range")
		}
		head, err := r.Head(context.Background())
		if err != nil || head != 50 {
			t.Fatalf("head = %d, %v", head, err)
		}
		for num := int64(1); num <= 50; num++ {
			raw, err := r.FetchBlock(context.Background(), num)
			if err != nil {
				t.Fatalf("fetch %d: %v", num, err)
			}
			if !bytes.Equal(raw, payload(num)) {
				t.Fatalf("block %d replayed wrong bytes: %s", num, raw)
			}
		}
		if _, err := r.FetchBlock(context.Background(), 51); err == nil {
			t.Fatal("fetching an unarchived block succeeded")
		}
	})
}

// TestFetchBlockConcurrent exercises the segment cache under the same
// parallel access pattern stream workers produce.
func TestFetchBlockConcurrent(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir, "eos", 64, 5)
	r, err := OpenWith(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(offset int64) {
			defer wg.Done()
			for num := int64(64) - offset; num >= 1; num -= 8 {
				raw, err := r.FetchBlock(context.Background(), num)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(raw, payload(num)) {
					errs <- fmt.Errorf("block %d: wrong bytes", num)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWriterAppendsAcrossSessions: a resumed crawl reopens the archive and
// extends it; the union replays, and the chains must match.
func TestWriterAppendsAcrossSessions(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		dir := t.TempDir()
		w1, err := NewWriter(WriterConfig{Dir: dir, Chain: "tezos", SegmentBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		for num := int64(10); num > 5; num-- {
			if err := w1.Append(num, payload(num)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w1.Close(); err != nil {
			t.Fatal(err)
		}

		w2, err := NewWriter(WriterConfig{Dir: dir, Chain: "tezos", SegmentBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		for num := int64(5); num >= 1; num-- {
			if err := w2.Append(num, payload(num)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := OpenWith(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Covers(1, 10) {
			t.Fatalf("union archive covers [%d,%d], blocks %d", r.From(), r.To(), r.Blocks())
		}

		if _, err := NewWriter(WriterConfig{Dir: dir, Chain: "xrp"}); err == nil {
			t.Fatal("writer accepted a chain mismatch against an existing manifest")
		}
	})
}

// TestWriterCompressedBytes: the footprint a teed crawl reports in place of
// a gzip sizer is the bytes the store really holds for this session — the
// committed segments' manifest comp_bytes, which are their object sizes —
// not counting an earlier session's segments (like Blocks) or a segment a
// failed publish threw away.
func TestWriterCompressedBytes(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		ctx := context.Background()
		base := blobstore.NewMemory()
		// stored sums manifest comp_bytes and object sizes over segments[from:].
		stored := func(from int) (manifest, objects int64) {
			t.Helper()
			m, err := loadManifest(ctx, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range m.Segments[from:] {
				size, err := base.Stat(ctx, seg.File)
				if err != nil {
					t.Fatal(err)
				}
				manifest += seg.CompBytes
				objects += size
			}
			return manifest, objects
		}

		w1, err := NewWriter(WriterConfig{Store: base, Chain: "eos", SegmentBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		// The rotation at 13 publishes segment 1 at the latest and seals
		// segment 2; once its members have deflated, 12 publishes it.
		for num := int64(20); num > 12; num-- {
			if err := w1.Append(num, payload(num)); err != nil {
				t.Fatal(err)
			}
		}
		// Segment 2 is sealed, not published: it counts as a segment but
		// not in the footprint.
		if man, _ := stored(0); w1.CompressedBytes() != man || w1.Segments() != 2 {
			t.Fatalf("with segment 2 sealed: footprint %d, manifest holds %d, %d segments", w1.CompressedBytes(), man, w1.Segments())
		}
		settle(w1)
		for num := int64(12); num > 10; num-- {
			if err := w1.Append(num, payload(num)); err != nil {
				t.Fatal(err)
			}
		}
		// Two segments committed, two records still open: only Close counts them.
		open1 := w1.CompressedBytes()
		if man, _ := stored(0); open1 != man || open1 == 0 {
			t.Fatalf("mid-session footprint %d, manifest holds %d", open1, man)
		}
		if got := w1.Segments(); got != 3 {
			t.Fatalf("writer counts %d segments, want 2 committed and 1 open", got)
		}
		if err := w1.Close(); err != nil {
			t.Fatal(err)
		}
		man1, obj1 := stored(0)
		if got := w1.CompressedBytes(); got != man1 || got != obj1 || got <= open1 {
			t.Fatalf("session 1 footprint %d, manifest %d, objects %d, before close %d", got, man1, obj1, open1)
		}

		// Session 2 inherits three segments and must not count them; its third
		// segment's publish fails and must not be counted either.
		faulty := blobstore.NewFaulty(base)
		w2, err := NewWriter(WriterConfig{Store: faulty, Chain: "eos", SegmentBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := w2.CompressedBytes(); got != 0 {
			t.Fatalf("fresh session already reports %d bytes", got)
		}
		boom := errors.New("endpoint on fire")
		faulty.BreakAfter(blobstore.OpPut, 4, -1, boom) // two segments + two manifests land
		for num := int64(10); num > 2; num-- {
			if err := w2.Append(num, payload(num)); err != nil {
				t.Fatal(err)
			}
		}
		settle(w2)
		if err := w2.Append(104, payload(104)); err != nil { // publishes segment 2
			t.Fatal(err)
		}
		clean := w2.CompressedBytes()
		for num := int64(103); num > 100; num-- { // the third completes segment 3, sealed
			if err := w2.Append(num, payload(num)); err != nil {
				t.Fatalf("sealing append %d: %v", num, err)
			}
		}
		settle(w2)
		if err := w2.Append(100, payload(100)); !errors.Is(err, boom) {
			t.Fatalf("publishing append did not surface the put failure: %v", err)
		}
		if err := w2.Close(); !errors.Is(err, boom) {
			t.Fatalf("closing a poisoned writer: %v", err)
		}
		man2, obj2 := stored(3)
		if got := w2.CompressedBytes(); got != clean || got != man2 || got != obj2 {
			t.Fatalf("session 2 footprint %d, before the failed publish %d, manifest %d, objects %d", got, clean, man2, obj2)
		}
	})
}

// TestDuplicateRecordsDedupe: an archive may hold a block twice (a plain
// Writer appends what it is handed, and archives on disk predate Crawl);
// replay keeps the first copy and still counts it once.
func TestDuplicateRecordsDedupe(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos", SegmentBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, num := range []int64{5, 4, 3, 4, 2, 1, 4} {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenWith(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks() != 5 {
		t.Fatalf("deduped block count = %d, want 5", r.Blocks())
	}
	if !r.Covers(1, 5) {
		t.Fatal("archive with duplicates should still cover [1,5]")
	}
	raw, err := r.FetchBlock(context.Background(), 4)
	if err != nil || !bytes.Equal(raw, payload(4)) {
		t.Fatalf("duplicated block replayed wrong: %s, %v", raw, err)
	}
}

// TestOpenMissingManifest: a directory that was never archived reports
// fs.ErrNotExist, not corruption.
func TestOpenMissingManifest(t *testing.T) {
	if _, err := OpenWith(t.TempDir(), OpenOptions{}); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing manifest: %v", err)
	}
}

// TestEmptyArchiveManifests: a crawl that archived nothing still writes a
// manifest, and replay reports the emptiness clearly.
func TestEmptyArchiveManifests(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenWith(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks() != 0 || r.Covers(1, 1) {
		t.Fatal("empty archive claims coverage")
	}
	if _, err := r.Head(context.Background()); err == nil {
		t.Fatal("empty archive returned a head")
	}
}

// TestCrashMidSegmentLeavesNoTorn: abandoning a writer without Close (a
// crash, or SIGKILL racing a rotation) must leave the manifest pointing
// only at fully published segments — the sealed segment and the open one
// buffer in memory and simply evaporate, publishing nothing partial.
func TestCrashMidSegmentLeavesNoTorn(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos", SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 10..7 seal segment 1; once its member has deflated, 6 publishes it
	// (atomic publish + manifest commit). With every deflate token held, 3
	// seals segment 2 behind its undeflated member, and 2 and 1 sit in the
	// open segment's buffer when the "crash" lands: the most a crash loses.
	for num := int64(10); num >= 7; num-- {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	settle(w)
	release := holdTokens(w)
	for num := int64(6); num >= 1; num-- {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the writer is simply abandoned.

	r, err := OpenWith(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("archive after crash failed to open: %v", err)
	}
	if r.Segments() != 1 || r.Blocks() != 4 {
		t.Fatalf("crashed archive replays %d blocks in %d segments, want segment 1's 4", r.Blocks(), r.Segments())
	}
	if !r.Covers(7, 10) || r.Covers(6, 10) {
		t.Fatalf("crashed archive coverage wrong: [%d,%d]", r.From(), r.To())
	}
	release() // the abandoned member deflates into memory nobody reads

	// The next session re-archives what was lost.
	w2, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos", SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(6); num >= 1; num-- {
		if err := w2.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenWith(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Covers(1, 10) {
		t.Fatalf("recovered archive covers [%d,%d] with %d blocks", r2.From(), r2.To(), r2.Blocks())
	}
}

// TestFailedPutPoisonsWriter: when publishing a segment fails (disk full,
// endpoint outage), the writer must report the failure on the Append that
// published it, refuse everything after it, and never manifest the lost
// segment or any block after it — while the segments published before the
// failure stay replayable. (The lost blocks are in no manifest, so a rerun
// of the crawl fetches them again.)
func TestFailedPutPoisonsWriter(t *testing.T) {
	for _, backend := range []string{"file", "mem"} {
		t.Run(backend, func(t *testing.T) {
			var base blobstore.Store
			if backend == "file" {
				base = blobstore.NewFile(t.TempDir())
			} else {
				base = blobstore.NewMemory()
			}
			faulty := blobstore.NewFaulty(base)
			w, err := NewWriter(WriterConfig{Store: faulty, Chain: "eos", SegmentBlocks: 3})
			if err != nil {
				t.Fatal(err)
			}
			// Segment 1 ({6,5,4}) publishes cleanly: one segment put + one
			// manifest put. The next segment's put fails.
			boom := errors.New("endpoint on fire")
			faulty.BreakAfter(blobstore.OpPut, 2, -1, boom)
			// The rotation at 1 publishes segment 1 at the latest and seals
			// segment 2 ({3,2,1}) without publishing it.
			for num := int64(6); num >= 1; num-- {
				if err := w.Append(num, payload(num)); err != nil {
					t.Fatal(err)
				}
			}
			// Once segment 2's member has deflated, the next Append publishes
			// it and surfaces the failure.
			settle(w)
			if err := w.Append(7, payload(7)); !errors.Is(err, boom) {
				t.Fatalf("publishing append did not surface the put failure: %v", err)
			}
			if err := w.Append(8, payload(8)); !errors.Is(err, boom) {
				t.Fatalf("append after a failed publish: %v (want the original failure)", err)
			}
			if err := w.Close(); !errors.Is(err, boom) {
				t.Fatalf("closing a poisoned writer: %v (want the original failure)", err)
			}

			faulty.Clear()
			r, err := OpenWith("", OpenOptions{Store: base})
			if err != nil {
				t.Fatalf("archive after a discarded poisoned segment failed to open: %v", err)
			}
			if !r.Covers(4, 6) {
				t.Fatalf("finalized pre-failure segment lost: covers [%d, %d]", r.From(), r.To())
			}
			for _, num := range []int64{3, 2, 1, 7, 8} {
				if r.Covers(num, num) {
					t.Fatalf("block %d, from the poisoned segment on, leaked into the manifest", num)
				}
			}
		})
	}
}

// TestRotationSealsWithoutWaiting: with every deflate token held, an
// Append that rotates seals its segment and returns, and so do the Appends
// after it; the second rotation finds segment 1 still pending and blocks
// until its members deflate, then publishes it.
func TestRotationSealsWithoutWaiting(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		ctx := context.Background()
		st := blobstore.NewMemory()
		w, err := NewWriter(WriterConfig{Store: st, Chain: "eos", SegmentBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		w.memberBytes = 100 // two records of payload() a member
		release := holdTokens(w)
		sealed := make(chan error, 1)
		go func() {
			for num := int64(1); num <= 7; num++ {
				if err := w.Append(num, payload(num)); err != nil {
					sealed <- err
					return
				}
			}
			sealed <- nil
		}()
		select {
		case err := <-sealed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the first rotation waited for its segment's members to deflate")
		}
		if got := w.Segments(); got != 2 {
			t.Fatalf("writer counts %d segments, want the sealed and the open one", got)
		}
		if _, err := loadManifest(ctx, st); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("a segment was published before its members deflated: %v", err)
		}
		rotated := make(chan error, 1)
		go func() { rotated <- w.Append(8, payload(8)) }()
		select {
		case err := <-rotated:
			t.Fatalf("second rotation returned (%v) before segment 1's members deflated", err)
		case <-time.After(20 * time.Millisecond):
		}
		release()
		if err := <-rotated; err != nil {
			t.Fatal(err)
		}
		man, err := loadManifest(ctx, st)
		if err != nil {
			t.Fatal(err)
		}
		if len(man.Segments) != 1 || man.Segments[0].Min != 1 || man.Segments[0].Max != 4 {
			t.Fatalf("second rotation published %+v, want segment 1 of blocks [1, 4]", man.Segments)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenWith("", OpenOptions{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if r.Segments() != 2 || !r.Covers(1, 8) {
			t.Fatalf("closed archive: %d segments covering [%d, %d]", r.Segments(), r.From(), r.To())
		}
	})
}

// TestCorruptionFailsLoudly: each case mutates a valid archive; Open must
// refuse it with ErrCorrupt, in a message containing want, without
// allocating more than the objects it read could account for.
func TestCorruptionFailsLoudly(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		cases := []struct {
			name    string
			want    string
			corrupt func(t *testing.T, dir string)
		}{
			{"truncated segment", "truncated or modified", func(t *testing.T, dir string) {
				seg := firstSegment(t, dir)
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(seg, data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			}},
			{"flipped byte", "checksum mismatch", func(t *testing.T, dir string) {
				seg := firstSegment(t, dir)
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0xff
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}},
			{"missing segment", "missing segment", func(t *testing.T, dir string) {
				if err := os.Remove(firstSegment(t, dir)); err != nil {
					t.Fatal(err)
				}
			}},
			{"manifest block count mismatch", "disagrees with manifest (blocks 6/7", func(t *testing.T, dir string) {
				// One block more and one record header's bytes less: the entry
				// still accounts for the stream the members state, so only the
				// record walk's count can object.
				editManifest(t, dir, func(m *Manifest) {
					m.Segments[0].Blocks++
					m.Segments[0].RawBytes -= 12
				})
			}},
			{"manifest height range mismatch", "disagrees with manifest", func(t *testing.T, dir string) {
				editManifest(t, dir, func(m *Manifest) { m.Segments[0].Max++ })
			}},
			{"manifest raw byte mismatch", "segment-000001.gz: stream inflates past", func(t *testing.T, dir string) {
				editManifest(t, dir, func(m *Manifest) { m.Segments[0].RawBytes-- })
			}},
			{"manifest overstates raw bytes by 2^40", "disagrees with manifest", func(t *testing.T, dir string) {
				editManifest(t, dir, func(m *Manifest) { m.Segments[0].RawBytes += 1 << 40 })
			}},
			{"manifest overstates blocks by 2^60", "disagrees with manifest", func(t *testing.T, dir string) {
				editManifest(t, dir, func(m *Manifest) { m.Segments[0].Blocks += 1 << 60 })
			}},
			{"manifest with negative raw bytes", "disagrees with manifest", func(t *testing.T, dir string) {
				editManifest(t, dir, func(m *Manifest) { m.Segments[0].RawBytes = -1 << 40 })
			}},
			{"stream longer than the manifest accounts for", "segment-000001.gz: stream inflates past", func(t *testing.T, dir string) {
				// A whole extra record, checksum and size recomputed: only the
				// sized inflate (or the record walk behind it) can object.
				rewriteFirstSegment(t, dir, func(stream []byte) []byte {
					rec := make([]byte, 12, 12+64)
					binary.BigEndian.PutUint64(rec, 21)
					binary.BigEndian.PutUint32(rec[8:], 64)
					return append(stream, append(rec, make([]byte, 64)...)...)
				})
			}},
			{"bad magic with recomputed checksum", "bad segment magic", func(t *testing.T, dir string) {
				rewriteFirstSegment(t, dir, func(stream []byte) []byte {
					stream[0] ^= 0x20
					return stream
				})
			}},
			{"stream ending mid-record with recomputed checksum", "ends mid-record header", func(t *testing.T, dir string) {
				// The last record cut to 5 bytes of its header, and the entry's
				// raw bytes lowered so it accounts for exactly the stream the
				// members state: only the record walk runs out.
				last := len(payload(20))
				rewriteFirstSegment(t, dir, func(stream []byte) []byte {
					return append(stream[:len(stream)-last-12], make([]byte, 5)...)
				})
				editManifest(t, dir, func(m *Manifest) { m.Segments[0].RawBytes -= int64(last + 12 - 5) })
			}},
			{"segment written before members", "segment-000001.gz: its first gzip member states no length", func(t *testing.T, dir string) {
				// The same stream as one gzip object without the length
				// subfield, as segments were written before they were cut into
				// members: refused by name, with the way to re-archive it.
				seg := firstSegment(t, dir)
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				object := gzipAt(t, segmentLevel, gunzip(t, data))
				if err := os.WriteFile(seg, object, 0o644); err != nil {
					t.Fatal(err)
				}
				editManifest(t, dir, func(m *Manifest) {
					m.Segments[0].SHA256 = sha256Hex(object)
					m.Segments[0].CompBytes = int64(len(object))
				})
			}},
			{"manifest without compressed size", "inconsistent metadata", func(t *testing.T, dir string) {
				editManifest(t, dir, func(m *Manifest) { m.Segments[0].CompBytes = 0 })
			}},
			{"manifest of another version", "unsupported version", func(t *testing.T, dir string) {
				editManifest(t, dir, func(m *Manifest) { m.Version = manifestVersion - 1 })
			}},
			{"truncated gzip stream with recomputed checksum", "unexpected EOF", func(t *testing.T, dir string) {
				// Defeats the checksum so the record walk itself must catch it.
				seg := firstSegment(t, dir)
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				trunc := data[:len(data)-4]
				if err := os.WriteFile(seg, trunc, 0o644); err != nil {
					t.Fatal(err)
				}
				// Also fix up the size so the record walk itself is what trips.
				editManifest(t, dir, func(m *Manifest) {
					m.Segments[0].SHA256 = sha256Hex(trunc)
					m.Segments[0].CompBytes = int64(len(trunc))
				})
			}},
			// The member cases reframe the first segment as gzip members of 40
			// bytes of stream each and re-stamp the manifest's size and
			// checksum, so only the member parser and the inflate behind it can
			// object.
			{"member length past the object", "segment-000001.gz: gzip member at byte", func(t *testing.T, dir string) {
				reframeFirstSegment(t, dir, 40, func(obj []byte, at []int) []byte {
					addUint32(obj[at[len(at)-1]+memberLenAt:], 1)
					return obj
				})
			}},
			{"member length into the next member", "segment-000001.gz: gzip member at byte 0", func(t *testing.T, dir string) {
				reframeFirstSegment(t, dir, 40, func(obj []byte, at []int) []byte {
					addUint32(obj[memberLenAt:], 10)
					return obj
				})
			}},
			{"member with bytes past its trailer inside its stated length", "deflate stream ends 8 bytes before the trailer", func(t *testing.T, dir string) {
				// The last member's trailer repeated and its length stretched
				// over the copy: its stated ISIZE still reads true, and only
				// the check that a member ends where its length says catches it.
				reframeFirstSegment(t, dir, 40, func(obj []byte, at []int) []byte {
					addUint32(obj[at[len(at)-1]+memberLenAt:], 8)
					return append(obj, obj[len(obj)-8:]...)
				})
			}},
			{"false member ISIZE", "segment-000001.gz: stream inflates past", func(t *testing.T, dir string) {
				reframeFirstSegment(t, dir, 40, func(obj []byte, at []int) []byte {
					addUint32(obj[at[1]-4:], 1)
					return obj
				})
			}},
			{"false member ISIZEs that still sum to the manifest", "segment-000001.gz: gzip member at byte 0: inflates to 40 bytes, its ISIZE states 41", func(t *testing.T, dir string) {
				reframeFirstSegment(t, dir, 40, func(obj []byte, at []int) []byte {
					addUint32(obj[at[1]-4:], 1)
					addUint32(obj[at[2]-4:], -1)
					return obj
				})
			}},
			{"member CRC mismatch with recomputed checksum", "CRC-32 of its 40 bytes is", func(t *testing.T, dir string) {
				reframeFirstSegment(t, dir, 40, func(obj []byte, at []int) []byte {
					obj[at[2]-8] ^= 0x01
					return obj
				})
			}},
			{"member without a length after members with one", "states no length", func(t *testing.T, dir string) {
				reframeFirstSegment(t, dir, 40, func(obj []byte, at []int) []byte {
					// The last member re-deflated without the subfield.
					stream := gunzip(t, obj[at[len(at)-1]:])
					return append(obj[:at[len(at)-1]], gzipAt(t, segmentLevel, stream)...)
				})
			}},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				dir := t.TempDir()
				writeArchive(t, dir, "eos", 20, 6)
				tc.corrupt(t, dir)
				// What Open may read: the manifest and every segment object.
				var stored int64
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if info, err := e.Info(); err == nil {
						stored += info.Size()
					}
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err = OpenWith(dir, OpenOptions{})
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Fatal("corrupted archive opened cleanly")
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("corruption not reported as ErrCorrupt: %v", err)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %q does not say %q", err, tc.want)
				}
				// Proportional to the bytes stored, never to what a manifest
				// claims: the inflate buffer is capped at maxInflateRatio × the
				// compressed object, plus fixed gzip and hashing state.
				if got, bound := int64(after.TotalAlloc-before.TotalAlloc), 2*maxInflateRatio*stored+1<<20; got > bound {
					t.Fatalf("refusing a %d-byte archive allocated %d bytes (bound %d)", stored, got, bound)
				}
			})
		}
	})
}

// rewriteFirstSegment replaces the first segment's uncompressed stream
// (magic included) with edit's result, framed as members the way the
// writer frames it, and makes the manifest's compressed size and checksum
// agree with the new object, so only checks behind the checksum can catch
// the edit.
func rewriteFirstSegment(t *testing.T, dir string, edit func(stream []byte) []byte) {
	t.Helper()
	seg := firstSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	object, _ := memberObject(edit(gunzip(t, data)), memberBytes)
	if err := os.WriteFile(seg, object, 0o644); err != nil {
		t.Fatal(err)
	}
	editManifest(t, dir, func(m *Manifest) {
		m.Segments[0].SHA256 = sha256Hex(object)
		m.Segments[0].CompBytes = int64(len(object))
	})
}

func firstSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "segment-*.gz"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return segs[0]
}

func editManifest(t *testing.T, dir string, edit func(*Manifest)) {
	t.Helper()
	ctx := context.Background()
	st := blobstore.NewFile(dir)
	m, err := loadManifest(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	edit(&m)
	if err := saveManifest(ctx, st, m); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentRotationBySize: the byte bound rotates segments independently
// of the record-count bound.
func TestSegmentRotationBySize(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos", SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(6); num >= 1; num-- {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Segments() < 2 {
		t.Fatalf("size bound never rotated: %d segments", w.Segments())
	}
	r, err := OpenWith(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Covers(1, 6) {
		t.Fatal("size-rotated archive incomplete")
	}
}

// TestReplayDeliversEachBlockOnce: the parallel replay must visit every
// distinct block exactly once with the same bytes FetchBlock serves,
// duplicates (re-archived blocks) included, at every worker count.
func TestReplayDeliversEachBlockOnce(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		dir := t.TempDir()
		w, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos", SegmentBlocks: 5})
		if err != nil {
			t.Fatal(err)
		}
		for num := int64(40); num >= 1; num-- {
			if err := w.Append(num, payload(num)); err != nil {
				t.Fatal(err)
			}
		}
		// Re-archive a few blocks, as a resumed crawl does; the duplicates
		// land in later segments and must not be delivered.
		for _, num := range []int64{40, 17, 3} {
			if err := w.Append(num, append(payload(num), []byte("-stale")...)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := OpenWith(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 5, 16} {
			var mu sync.Mutex
			seen := make(map[int64]int)
			err := r.Replay(context.Background(), workers, func(worker int, num int64, raw []byte) error {
				if worker < 0 || worker >= workers {
					return fmt.Errorf("worker index %d out of range", worker)
				}
				if !bytes.Equal(raw, payload(num)) {
					return fmt.Errorf("block %d: replay delivered wrong bytes %q", num, raw)
				}
				mu.Lock()
				seen[num]++
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if int64(len(seen)) != r.Blocks() {
				t.Fatalf("workers=%d: visited %d blocks, want %d", workers, len(seen), r.Blocks())
			}
			for num, n := range seen {
				if n != 1 {
					t.Fatalf("workers=%d: block %d visited %d times", workers, num, n)
				}
			}
		}
	})
}

// TestReplayStopsOnVisitError: the first visit error surfaces and stops
// the fan-out promptly.
func TestReplayStopsOnVisitError(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		dir := t.TempDir()
		writeArchive(t, dir, "eos", 30, 4)
		r, err := OpenWith(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		boom := errors.New("boom")
		err = r.Replay(context.Background(), 3, func(worker int, num int64, raw []byte) error {
			if num == 13 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("visit error not surfaced: %v", err)
		}
	})
}

// TestReplayCancelled: a cancelled context surfaces as its error.
func TestReplayCancelled(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		dir := t.TempDir()
		writeArchive(t, dir, "eos", 30, 4)
		r, err := OpenWith(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err = r.Replay(ctx, 2, func(worker int, num int64, raw []byte) error { return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled replay returned %v", err)
		}
	})
}

// TestReplayDetectsPostOpenTamper: a segment modified after Open fails the
// replay walk's re-verification on a cache miss instead of feeding stale
// or corrupt bytes to visitors.
func TestReplayDetectsPostOpenTamper(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		dir := t.TempDir()
		writeArchive(t, dir, "eos", 60, 4) // 15 segments, far beyond the cache
		r, err := OpenWith(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Drop the Open-seeded cache so every segment takes the miss path.
		r.mu.Lock()
		r.cache = make(map[int][]byte)
		r.order = nil
		r.mu.Unlock()

		seg := firstSegment(t, dir)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err = r.Replay(context.Background(), 2, func(worker int, num int64, raw []byte) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("tampered segment replayed without ErrCorrupt: %v", err)
		}
	})
}

// TestOpenWorkersMatchSerial: any verification fan-out produces the
// same reader state — index size, bounds, duplicate resolution — as the
// serial walk.
func TestOpenWorkersMatchSerial(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos", SegmentBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(25); num >= 1; num-- {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicates whose first-written copy must win under any fan-out.
	for _, num := range []int64{25, 9} {
		if err := w.Append(num, append(payload(num), []byte("-dup")...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	serial, err := OpenWith(dir, OpenOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 9} {
		par, err := OpenWith(dir, OpenOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Blocks() != serial.Blocks() || par.From() != serial.From() || par.To() != serial.To() {
			t.Fatalf("workers=%d: blocks/from/to %d/%d/%d vs serial %d/%d/%d",
				workers, par.Blocks(), par.From(), par.To(), serial.Blocks(), serial.From(), serial.To())
		}
		for num, ref := range serial.index {
			if par.index[num] != ref {
				t.Fatalf("workers=%d: block %d indexed at %+v, serial at %+v", workers, num, par.index[num], ref)
			}
		}
	}
}
