package archive

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/blobstore"
)

// gzipAt deflates stream as one gzip object at a flate level.
func gzipAt(t testing.TB, level int, stream []byte) []byte {
	t.Helper()
	var obj bytes.Buffer
	zw, err := gzip.NewWriterLevel(&obj, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(stream); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return obj.Bytes()
}

// variedPayload is a block body with enough texture that flate levels
// deflate it to different sizes.
func variedPayload(num int64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"block_num":%d,"transactions":[`, num)
	for i := int64(0); i < 40; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":"%016x","from":"acct%d","to":"acct%d","quantity":"%d.%04d EOS"}`,
			uint64(num*7919+i)*0x9e3779b97f4a7c15, (num+i)%17, (num*i)%23, i*num%1000, i)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// TestDefaultLevelSegmentsOpenAndResume: segments were deflated at
// gzip.DefaultCompression until segmentLevel existed, and the level is
// nowhere in the format. An archive of such segments (built here with
// compress/gzip, as the old writer built them) must open with a full verify
// and replay byte-identically, and so must the same location once this
// writer has resumed it: default-level segments followed by segmentLevel
// ones under one manifest.
func TestDefaultLevelSegmentsOpenAndResume(t *testing.T) {
	ctx := context.Background()
	st := blobstore.NewMemory()
	old := [][]int64{{8, 6, 4, 2}, {7, 5, 3, 1}}
	man := Manifest{Version: manifestVersion, Chain: "eos"}
	var order []int64 // manifest order, then write order: what one worker replays
	for i, nums := range old {
		stream := fuzzStream(nums, variedPayload)
		object := gzipAt(t, gzip.DefaultCompression, stream)
		seg := SegmentInfo{File: segmentName(i + 1), CompBytes: int64(len(object)), SHA256: sha256Hex(object)}
		seg.Blocks, seg.RawBytes, seg.Min, seg.Max = honestEntry(stream)
		if err := st.Put(ctx, seg.File, object); err != nil {
			t.Fatal(err)
		}
		man.Segments = append(man.Segments, seg)
		order = append(order, nums...)
	}
	if err := saveManifest(ctx, st, man); err != nil {
		t.Fatal(err)
	}

	check := func(when string) {
		t.Helper()
		r, err := OpenWith("", OpenOptions{Store: st})
		if err != nil {
			t.Fatalf("%s: open with full verify: %v", when, err)
		}
		if r.Blocks() != int64(len(order)) || !r.Covers(1, int64(len(order))) {
			t.Fatalf("%s: %d blocks held, want [1, %d]", when, r.Blocks(), len(order))
		}
		var got []int64
		err = r.Replay(ctx, 1, func(_ int, num int64, raw []byte) error {
			if !bytes.Equal(raw, variedPayload(num)) {
				t.Errorf("%s: block %d replays as %q", when, num, raw)
			}
			got = append(got, num)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: replay: %v", when, err)
		}
		if !slices.Equal(got, order) {
			t.Fatalf("%s: replay order %v, want %v", when, got, order)
		}
		for _, num := range order {
			raw, err := r.FetchBlock(ctx, num)
			if err != nil || !bytes.Equal(raw, variedPayload(num)) {
				t.Fatalf("%s: fetch %d: %q, %v", when, num, raw, err)
			}
		}
	}
	check("default-level archive")

	w, err := NewWriter(WriterConfig{Store: st, Chain: "eos", SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	resumed := []int64{16, 14, 12, 10, 15, 13, 11, 9}
	for _, num := range resumed {
		if err := w.Append(num, variedPayload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	order = append(order, resumed...)
	check("resumed at segmentLevel")

	// The resumed segments are the cheaper deflate, not the default one:
	// same stream, more bytes.
	man, err = loadManifest(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 4 {
		t.Fatalf("%d segments after the resume, want 4", len(man.Segments))
	}
	for i, seg := range man.Segments[2:] {
		stream := fuzzStream(resumed[4*i:4*i+4], variedPayload)
		if dense := int64(len(gzipAt(t, gzip.DefaultCompression, stream))); seg.CompBytes <= dense {
			t.Errorf("%s is %d bytes, no larger than the default level's %d: is the writer back at the default?", seg.File, seg.CompBytes, dense)
		}
	}
}
