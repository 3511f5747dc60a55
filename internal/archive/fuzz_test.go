package archive

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/blobstore"
)

// fuzzStream builds a segment's uncompressed stream from (num, payload)
// records.
func fuzzStream(nums []int64, body func(int64) []byte) []byte {
	stream := []byte(segmentMagic)
	for _, num := range nums {
		p := body(num)
		var hdr [12]byte
		binary.BigEndian.PutUint64(hdr[:8], uint64(num))
		binary.BigEndian.PutUint32(hdr[8:], uint32(len(p)))
		stream = append(append(stream, hdr[:]...), p...)
	}
	return stream
}

// honestEntry is the manifest entry a Writer would have committed for
// stream: a walk as far as the records are well-formed. A stream that is
// not a segment at all gets numbers Open will refuse.
func honestEntry(stream []byte) (blocks, raw, min, max int64) {
	if len(stream) < len(segmentMagic) {
		return
	}
	for p := stream[len(segmentMagic):]; len(p) >= 12; {
		num := int64(binary.BigEndian.Uint64(p[:8]))
		n := int64(binary.BigEndian.Uint32(p[8:12]))
		if n > int64(len(p))-12 {
			break
		}
		blocks, raw = blocks+1, raw+n
		if min == 0 || num < min {
			min = num
		}
		if num > max {
			max = num
		}
		p = p[12+n:]
	}
	return
}

// FuzzOpenArchive drives hostile segment bytes and manifest numbers through
// the whole read path. The fuzzer owns two segments' uncompressed streams
// (the harness gzips them and keeps the manifest's size and checksum
// honest, so mutations reach the inflate, the magic check and the record
// walk instead of dying at the digest), how far the first segment's
// manifest entry lies about its block count and raw bytes — the two
// numbers the inflate buffer is sized from — how many bytes are cut off
// the first compressed object, and the open's range. Whatever comes in,
// OpenWith must not panic, must fail only with ErrCorrupt, and must not
// allocate more than a constant times the bytes stored; when it accepts,
// a two-worker Replay and a FetchBlock walk must deliver the same set.
//
// The corpus under testdata/fuzz/FuzzOpenArchive is a two-segment archive
// of simulator-built blocks — workload.BuildTezos at scale 6400, seed 22,
// levels 1–8 through rpcserve's block converter and Codec.AppendTezosBlock, four
// per segment — as written, with level 7 re-archived in the second
// segment and opened over [3, 7], with overstated and understated manifest
// numbers, and with a truncated object.
func FuzzOpenArchive(f *testing.F) {
	f.Add(fuzzStream([]int64{4, 3}, payload), fuzzStream([]int64{2, 1}, payload), int64(0), int64(0), uint8(0), int64(0), int64(0))
	f.Add(fuzzStream([]int64{4, 3}, payload), fuzzStream([]int64{3, 1}, payload), int64(0), int64(0), uint8(0), int64(2), int64(3))
	f.Add(fuzzStream([]int64{4, 3}, payload), fuzzStream([]int64{2, 1}, payload), int64(1)<<60, int64(1)<<40, uint8(0), int64(0), int64(0))
	f.Add(fuzzStream([]int64{4, 3}, payload), fuzzStream(nil, payload), int64(0), int64(-1), uint8(5), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, stream1, stream2 []byte, dBlocks, dRaw int64, trunc uint8, from, to int64) {
		ctx := context.Background()
		st := blobstore.NewMemory()
		man := Manifest{Version: manifestVersion, Chain: "tezos"}
		var stored int64
		for i, stream := range [][]byte{stream1, stream2} {
			object := gzipAt(t, segmentLevel, stream)
			seg := SegmentInfo{File: segmentName(i + 1)}
			seg.Blocks, seg.RawBytes, seg.Min, seg.Max = honestEntry(stream)
			if i == 0 {
				seg.Blocks, seg.RawBytes = seg.Blocks+dBlocks, seg.RawBytes+dRaw
				object = object[:len(object)-min(int(trunc), len(object)-1)]
			}
			seg.CompBytes, seg.SHA256 = int64(len(object)), sha256Hex(object)
			if err := st.Put(ctx, seg.File, object); err != nil {
				t.Fatal(err)
			}
			man.Segments = append(man.Segments, seg)
			stored += seg.CompBytes
		}
		if err := saveManifest(ctx, st, man); err != nil {
			t.Fatal(err)
		}
		if from <= 0 || to < from {
			from, to = 0, 0 // OpenWith refuses these before reading anything
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := OpenWith("", OpenOptions{Store: st, From: from, To: to})
		runtime.ReadMemStats(&after)
		// The inflate buffer is at most maxInflateRatio × the object, and
		// the record list and index are a few words per 12-byte header of
		// it; the rest is fixed gzip, hashing and JSON state.
		if got, bound := int64(after.TotalAlloc-before.TotalAlloc), 16*maxInflateRatio*stored+1<<20; got > bound {
			t.Fatalf("opening %d stored bytes allocated %d (bound %d)", stored, got, bound)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refused with something other than ErrCorrupt: %v", err)
			}
			return
		}

		var mu sync.Mutex
		replayed := make(map[int64][]byte)
		err = r.Replay(ctx, 2, func(worker int, num int64, raw []byte) error {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := replayed[num]; dup {
				t.Errorf("block %d replayed twice", num)
			}
			replayed[num] = bytes.Clone(raw)
			return nil
		})
		if err != nil {
			t.Fatalf("replaying an archive Open accepted: %v", err)
		}
		if int64(len(replayed)) != r.Blocks() {
			t.Fatalf("replay delivered %d blocks, the open indexes %d", len(replayed), r.Blocks())
		}
		for num, want := range replayed {
			if from > 0 && (num < from || num > to) {
				t.Fatalf("block %d replayed outside [%d, %d]", num, from, to)
			}
			got, err := r.FetchBlock(ctx, num)
			if err != nil {
				t.Fatalf("block %d replayed but not fetchable: %v", num, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("block %d: replay delivered %q, FetchBlock serves %q", num, want, got)
			}
		}
	})
}
