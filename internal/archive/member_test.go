package archive

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"io"
	"os"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/testkit"
	"repro/internal/wire"
)

// memberObject frames stream the way the writer does — gzip members with
// the length subfield — cut every cut bytes, not necessarily at a record
// boundary: the reader does not rely on the cut. An empty stream is one
// empty member. It returns the object and each member's offset in it.
func memberObject(stream []byte, cut int) ([]byte, []int) {
	var obj, out bytes.Buffer
	var at []int
	for lo := 0; lo == 0 || lo < len(stream); lo += cut {
		out.Reset()
		deflateMember(&out, stream[lo:min(lo+cut, len(stream))])
		at = append(at, obj.Len())
		obj.Write(out.Bytes())
	}
	return obj.Bytes(), at
}

// gunzip inflates obj with a plain multistream gzip reader, as the gunzip
// command would.
func gunzip(t *testing.T, obj []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(obj))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// countMembers walks obj's member lengths, failing unless each states one
// and together they tile obj exactly, and returns how many there are.
func countMembers(t *testing.T, obj []byte) int {
	t.Helper()
	members := 0
	for at := 0; at < len(obj); members++ {
		n, ok := memberLen(obj[at:])
		if !ok || n < minMemberBytes || n > len(obj)-at {
			t.Fatalf("member at byte %d states length %d (subfield found: %v) in a %d-byte object", at, n, ok, len(obj))
		}
		at += n
	}
	return members
}

// TestWriterCutsMembers: a segment is a run of gzip members, each stating
// its own length, that tile the object exactly; any gzip reader inflates
// the object to the segment's stream (so gunzip still reads a segment, the
// final fill Close splits in two members included); and the archive
// replays and fetches byte-identically.
func TestWriterCutsMembers(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		ctx := context.Background()
		st := blobstore.NewMemory()
		w, err := NewWriter(WriterConfig{Store: st, Chain: "eos", SegmentBlocks: 8})
		if err != nil {
			t.Fatal(err)
		}
		w.memberBytes = 150 // three records of payload()
		nums := []int64{16, 14, 12, 10, 8, 6, 4, 2, 15, 13, 11, 9, 7, 5, 3, 1, 17}
		for _, num := range nums {
			if err := w.Append(num, payload(num)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		man, err := loadManifest(ctx, st)
		if err != nil {
			t.Fatal(err)
		}
		if len(man.Segments) != 3 {
			t.Fatalf("%d segments, want 3", len(man.Segments))
		}
		for i, seg := range man.Segments {
			obj, err := st.Get(ctx, seg.File)
			if err != nil {
				t.Fatal(err)
			}
			// 8 records cut every 150 bytes make several members; Close
			// splits the third segment's lone record in two.
			if members := countMembers(t, obj); members < 2 || i == 2 && members != 2 {
				t.Errorf("%s is %d member(s), want at least 2 (exactly 2 for the last)", seg.File, members)
			}
			if want := fuzzStream(nums[8*i:min(8*i+8, len(nums))], payload); !bytes.Equal(gunzip(t, obj), want) {
				t.Errorf("%s does not gunzip to the segment's stream", seg.File)
			}
		}

		r, err := OpenWith("", OpenOptions{Store: st, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		err = r.Replay(ctx, 1, func(_ int, num int64, raw []byte) error {
			if !bytes.Equal(raw, payload(num)) {
				t.Errorf("block %d replays as %q", num, raw)
			}
			seen++
			return nil
		})
		if err != nil || seen != len(nums) {
			t.Fatalf("replayed %d of %d blocks: %v", seen, len(nums), err)
		}
		for _, num := range nums {
			if raw, err := r.FetchBlock(ctx, num); err != nil || !bytes.Equal(raw, payload(num)) {
				t.Fatalf("fetch %d: %q, %v", num, raw, err)
			}
		}
	})
}

// TestMembersAtAnyCutOpen: the reader finds members by their stated
// lengths and ISIZEs alone, so a stream framed at any cut — one member per
// three bytes up to one for the whole stream — opens, and every block is
// delivered from the right offset of the one buffer the members inflate
// into.
func TestMembersAtAnyCutOpen(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		ctx := context.Background()
		nums := []int64{5, 3, 1, 4, 2}
		stream := fuzzStream(nums, payload)
		for _, cut := range []int{3, 7, 12, 100, len(stream)} {
			st := blobstore.NewMemory()
			obj, _ := memberObject(stream, cut)
			seg := SegmentInfo{File: segmentName(1), CompBytes: int64(len(obj)), SHA256: sha256Hex(obj)}
			seg.Blocks, seg.RawBytes, seg.Min, seg.Max = honestEntry(stream)
			if err := st.Put(ctx, seg.File, obj); err != nil {
				t.Fatal(err)
			}
			if err := saveManifest(ctx, st, Manifest{Version: manifestVersion, Chain: "eos", Segments: []SegmentInfo{seg}}); err != nil {
				t.Fatal(err)
			}
			r, err := OpenWith("", OpenOptions{Store: st, Workers: 2})
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			r.mu.Lock()
			r.cache = make(map[int][]byte) // FetchBlock re-inflates through loadSegment
			r.order = nil
			r.mu.Unlock()
			for _, num := range nums {
				if raw, err := r.FetchBlock(ctx, num); err != nil || !bytes.Equal(raw, payload(num)) {
					t.Fatalf("cut %d: fetch %d: %q, %v", cut, num, raw, err)
				}
			}
		}
	})
}

// TestCachedFetchBlockAllocatesOnce: a FetchBlock served from the segment
// cache, recycled with wire.PutRaw, costs the one allocation PutRaw
// documents (the boxed slice header) — the cache's recency bookkeeping
// rotates in place.
func TestCachedFetchBlockAllocatesOnce(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	dir := t.TempDir()
	writeArchive(t, dir, "eos", 20, 5) // 4 segments: all cached by Open
	r, err := OpenWith(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Blocks 20 and 1 sit in the first and last segment, so every fetch
	// moves a segment to the back of the recency order.
	fetch := func() {
		for _, num := range []int64{20, 1} {
			raw, err := r.FetchBlock(ctx, num)
			if err != nil {
				t.Fatal(err)
			}
			wire.PutRaw(raw)
		}
	}
	fetch()
	if got := testing.AllocsPerRun(100, fetch); got != 2 {
		t.Fatalf("two cached FetchBlock + PutRaw pairs allocate %v times, want 2", got)
	}
}

// reframeFirstSegment replaces the first segment with its stream framed as
// members every cut bytes, hands the object and the members' offsets to
// edit, and stamps the manifest's size and checksum to match what edit
// left, so only checks behind the checksum can catch the edit.
func reframeFirstSegment(t *testing.T, dir string, cut int, edit func(obj []byte, at []int) []byte) {
	t.Helper()
	seg := firstSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	obj, at := memberObject(gunzip(t, data), cut)
	if len(at) < 3 {
		t.Fatalf("%d members; the member cases need three", len(at))
	}
	obj = edit(obj, at)
	if err := os.WriteFile(seg, obj, 0o644); err != nil {
		t.Fatal(err)
	}
	editManifest(t, dir, func(m *Manifest) {
		m.Segments[0].SHA256 = sha256Hex(obj)
		m.Segments[0].CompBytes = int64(len(obj))
	})
}

// addUint32 adds d to the little-endian uint32 at b.
func addUint32(b []byte, d int32) {
	binary.LittleEndian.PutUint32(b, binary.LittleEndian.Uint32(b)+uint32(d))
}
