package archive

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/testkit"
)

// memberLevels are the flate levels the decoder is held to stdlib at:
// Huffman-only, stored, and the fast, the archive's, the default and the
// best compressor.
var memberLevels = []int{gzip.HuffmanOnly, gzip.NoCompression, gzip.BestSpeed, segmentLevel, gzip.DefaultCompression, gzip.BestCompression}

// chainPayloads reads one simulator-built block payload per chain from the
// wire package's testdata.
func chainPayloads(tb testing.TB) map[string][]byte {
	tb.Helper()
	files := map[string]string{"eos": "eos_block.json", "tezos": "tezos_block.json", "xrp": "xrp_ledger_result.json"}
	out := make(map[string][]byte, len(files))
	for chain, name := range files {
		raw, err := os.ReadFile(filepath.Join("..", "wire", "testdata", name))
		if err != nil {
			tb.Fatal(err)
		}
		out[chain] = raw
	}
	return out
}

// chainStream builds size bytes of a segment's stream from records of
// payload, each with its decimal digits redrawn from a generator seeded by
// seed, so that no record repeats the one before it: the member deflates
// about as a crawl's would rather than to one long match.
func chainStream(payload []byte, size int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 1))
	stream := []byte(segmentMagic)
	for num := int64(1); len(stream) < size; num++ {
		var hdr [12]byte
		binary.BigEndian.PutUint64(hdr[:8], uint64(num))
		binary.BigEndian.PutUint32(hdr[8:], uint32(len(payload)))
		stream = append(stream, hdr[:]...)
		for _, c := range payload {
			if c >= '0' && c <= '9' {
				c = '0' + byte(rng.IntN(10))
			}
			stream = append(stream, c)
		}
	}
	return stream[:size]
}

// levelMember deflates raw at level into one gzip member with hdr's
// fields and, after any Extra of hdr's, the archive's length subfield,
// stamped the way deflateMember stamps it.
func levelMember(tb testing.TB, level int, raw []byte, hdr gzip.Header) []byte {
	tb.Helper()
	var out bytes.Buffer
	zw, err := gzip.NewWriterLevel(&out, level)
	if err != nil {
		tb.Fatal(err)
	}
	zw.Header = hdr
	zw.Header.Extra = append(append([]byte(nil), memberExtra...), hdr.Extra...)
	if _, err := zw.Write(raw); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	b := out.Bytes()
	binary.LittleEndian.PutUint32(b[memberLenAt:], uint32(len(b)))
	return b
}

// stdGunzip reads member with compress/gzip, the reference the decoder is
// held to, one member and no further, and reports any bytes left after it
// as an error.
func stdGunzip(member []byte) ([]byte, error) {
	br := bytes.NewReader(member)
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, err
	}
	zr.Multistream(false)
	out, err := io.ReadAll(zr)
	if err == nil && br.Len() > 0 {
		err = fmt.Errorf("%d bytes left after the member", br.Len())
	}
	return out, err
}

// memberISIZE is the ISIZE member's trailer states, capped as
// splitMembers caps it.
func memberISIZE(member []byte) int {
	if len(member) < 4 {
		return 0
	}
	return min(int(binary.LittleEndian.Uint32(member[len(member)-4:])), maxInflateRatio*len(member))
}

// TestInflateAcceptsEveryLevel: the decoder takes every member
// compress/gzip writes of the three chains' payloads, at every level from
// Huffman-only to best, with a header and a payload of any size, and
// inflates it to stdlib's bytes: whatever level a member was deflated at,
// it opens.
func TestInflateAcceptsEveryLevel(t *testing.T) {
	var d flateDecoder
	for chain, raw := range chainPayloads(t) {
		for _, size := range []int{0, 1, 300, len(raw), 200 << 10} {
			stream := chainStream(raw, size, uint64(size))
			for _, level := range memberLevels {
				member := levelMember(t, level, stream, gzip.Header{})
				want, err := stdGunzip(member)
				if err != nil {
					t.Fatal(err)
				}
				dst := make([]byte, memberISIZE(member))
				if err := d.gunzip(member, dst); err != nil || !bytes.Equal(dst, want) {
					t.Fatalf("%s, %d bytes at level %d: %v, equal to stdlib's %v",
						chain, size, level, err, bytes.Equal(dst, want))
				}
			}
		}
	}
}

// TestBuildTableCodes: buildTable builds a complete code and a single
// one-bit code, as compress/flate does, and refuses an oversubscribed, an
// incomplete and an empty one. A single one-bit code built over a table a
// complete code filled leaves its other bit invalid, not the old entry.
func TestBuildTableCodes(t *testing.T) {
	var sorted [288]uint16
	table := make([]uint32, distTableSize)
	lens := func(l ...uint8) []uint8 { return append(l, make([]uint8, 32-len(l))...) }
	full := make([]uint8, 32)
	for s := range full {
		full[s] = 5
	}
	for _, tc := range []struct {
		name string
		lens []uint8
		ok   bool
	}{
		{"complete", full, true},
		{"complete, two lengths", lens(1, 2, 2), true},
		{"oversubscribed", lens(1, 1, 1), false},
		{"incomplete", lens(1, 2), false},
		{"empty", lens(), false},
		{"single one-bit code", lens(0, 0, 1), true},
		{"single two-bit code", lens(2), false},
	} {
		if ok := buildTable(table, distRoot, tc.lens, distPayload[:], &sorted); ok != tc.ok {
			t.Fatalf("%s: built %v, want %v", tc.name, ok, tc.ok)
		}
	}
	// The last build is the single one-bit code for symbol 2, over the
	// complete code before it.
	for j := range 1 << distRoot {
		want := uint32(0)
		if j&1 == 0 {
			want = distPayload[2] | 1
		}
		if table[j] != want {
			t.Fatalf("entry %#b is %#x after a single one-bit code, want %#x", j, table[j], want)
		}
	}
}

// fuzzFlate is the decoder FuzzInflateMember reuses across inputs, so a
// table left behind by one input is under the next.
var fuzzFlate flateDecoder

// FuzzInflateMember holds the archive's DEFLATE decoder to compress/gzip on
// arbitrary bytes taken as one member: whenever the decoder accepts a
// member, a gzip reader with Multistream(false) accepts it too, inflates
// it to the same bytes and leaves none of it unread. The destination is
// sized by the trailer's ISIZE, capped as splitMembers caps it. The same
// bytes taken as a stream and deflated by the writer's deflateMember make
// a member the decoder accepts, inflating to that stream.
//
// Seeds: the three chains' wire testdata payloads as members deflated at
// levels -2, 0, 1, 2, 6 and 9, each one also cut short by its trailer's
// last byte and by half; one member with an FNAME header; and the two
// other members TestRefusedMembersFailOpen refuses.
func FuzzInflateMember(f *testing.F) {
	for _, raw := range chainPayloads(f) {
		for _, level := range memberLevels {
			member := levelMember(f, level, raw, gzip.Header{})
			f.Add(member)
			f.Add(member[:len(member)-1])
			f.Add(member[:len(member)/2])
		}
	}
	f.Add(levelMember(f, segmentLevel, []byte("named member"), gzip.Header{Name: "segment"}))
	f.Add(headerCRCMember(f, []byte("header crc member")))
	f.Add(literalOnlyMember([]byte("no distance code")))
	f.Fuzz(func(t *testing.T, member []byte) {
		testkit.Repeat(t, 20, func(t *testing.T) {
			dst := make([]byte, memberISIZE(member))
			if err := fuzzFlate.gunzip(member, dst); err == nil {
				want, err := stdGunzip(member)
				if err != nil {
					t.Fatalf("the decoder accepts a member compress/gzip refuses (%v)", err)
				}
				if !bytes.Equal(dst, want) {
					t.Fatalf("the decoder inflates %d bytes, compress/gzip %d; equal: %v", len(dst), len(want), bytes.Equal(dst, want))
				}
			}
			// What the writer deflates, the reader takes.
			var out bytes.Buffer
			deflateMember(&out, member)
			dst = make([]byte, len(member))
			if err := fuzzFlate.gunzip(out.Bytes(), dst); err != nil || !bytes.Equal(dst, member) {
				t.Fatalf("the decoder reads deflateMember's member of %d bytes as %v, equal: %v", len(member), err, bytes.Equal(dst, member))
			}
			// The deflate stream alone, held to compress/flate with no CRC to
			// turn a mutated stream into a refusal before it is compared.
			at := deflateStart(member)
			if n, end, ok := fuzzFlate.inflate(member, at, fuzzOut[:]); ok {
				want, err := io.ReadAll(flate.NewReader(bytes.NewReader(member[at:end])))
				if err != nil {
					t.Fatalf("the decoder accepts a deflate stream compress/flate refuses (%v)", err)
				}
				if !bytes.Equal(fuzzOut[:n], want) {
					t.Fatalf("the decoder inflates a deflate stream to %d bytes, compress/flate to %d", n, len(want))
				}
			}
		})
	})
}

// fuzzOut is where FuzzInflateMember inflates bare deflate streams.
var fuzzOut [1 << 20]byte

// deflateStart is where member's deflate stream starts if it opens with a
// gzip header the decoder reads, and 0 otherwise, so that a mutated header
// leaves a bare deflate stream to compare.
func deflateStart(member []byte) int {
	if len(member) < 12 || member[0] != 0x1f || member[1] != 0x8b {
		return 0
	}
	switch member[3] {
	case 0:
		return 10
	case 1 << 2:
		return min(12+int(binary.LittleEndian.Uint16(member[10:12])), len(member))
	}
	return 0
}

// memberTask builds the task for a member of the chain's stream, cut at
// size bytes and deflated at segmentLevel the way the writer cuts and
// deflates one.
func memberTask(payload []byte, size int, seed uint64) (inflateTask, []byte) {
	stream := chainStream(payload, size, seed)
	var out bytes.Buffer
	deflateMember(&out, stream)
	member := out.Bytes()
	return inflateTask{src: member, size: len(stream), dst: make([]byte, len(stream))}, stream
}

// TestInflateMemberAllocs: a warm inflate of a 512 KiB member, through the
// pooled decoder inflateTask.run borrows, allocates nothing.
func TestInflateMemberAllocs(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	task, stream := memberTask(chainPayloads(t)["eos"], memberBytes, 1)
	task.run()
	if task.err != nil || !bytes.Equal(task.dst, stream) {
		t.Fatalf("inflating a writer member: %v, equal: %v", task.err, bytes.Equal(task.dst, stream))
	}
	if got := testing.AllocsPerRun(20, task.run); got != 0 {
		t.Fatalf("a warm 512 KiB member inflate allocates %v times, want 0", got)
	}
}

// TestConcurrentMemberInflate: eight goroutines inflate eight distinct
// members through the pooled decoders at once, each several times, and
// every result equals that member's serial inflate: no table, bit buffer
// or output of one task leaks into another's.
func TestConcurrentMemberInflate(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		payloads := chainPayloads(t)
		chains := []string{"eos", "tezos", "xrp"}
		var tasks []inflateTask
		var want [][]byte
		for i := range 8 {
			task, _ := memberTask(payloads[chains[i%3]], 32<<10+i*4096, uint64(i))
			task.run()
			if task.err != nil {
				t.Fatal(task.err)
			}
			tasks = append(tasks, task)
			want = append(want, bytes.Clone(task.dst))
		}
		var wg sync.WaitGroup
		for i := range tasks {
			wg.Add(1)
			go func(task inflateTask) {
				defer wg.Done()
				task.dst = make([]byte, len(task.dst))
				for range 5 {
					clear(task.dst)
					task.run()
					if task.err != nil || !bytes.Equal(task.dst, want[i]) {
						t.Errorf("member %d inflates concurrently to other bytes than serially (%v)", i, task.err)
						return
					}
				}
			}(tasks[i])
		}
		wg.Wait()
	})
}

// headerCRCMember is raw as one gzip member, deflated at segmentLevel,
// whose header carries the archive's length subfield and an FHCRC: a
// header compress/gzip checks and the archive's decoder refuses, since the
// writer never sets it.
func headerCRCMember(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	const flagExtra, flagHdrCrc = 1 << 2, 1 << 1
	var body bytes.Buffer
	fw, err := flate.NewWriter(&body, segmentLevel)
	if err != nil {
		tb.Fatal(err)
	}
	fw.Write(raw)
	fw.Close()
	member := []byte{0x1f, 0x8b, 8, flagExtra | flagHdrCrc, 0, 0, 0, 0, 0, 255, byte(len(memberExtra)), 0}
	member = append(member, memberExtra...)
	binary.LittleEndian.PutUint32(member[memberLenAt:], uint32(len(member)+2+body.Len()+8))
	member = binary.LittleEndian.AppendUint16(member, uint16(crc32.ChecksumIEEE(member)))
	return gzipTrailer(append(member, body.Bytes()...), raw)
}

// literalOnlyMember is raw as one gzip member whose one dynamic block
// declares no distance code at all (HDIST 0, its one length 0) and codes
// every byte as a literal — a block compress/flate takes but never writes,
// and a code the archive's decoder does not build. Literals 0-254 get 8 bits, 255 and the
// end of block 9.
func literalOnlyMember(raw []byte) []byte {
	var w lsbWriter
	w.bits(1, 1) // final
	w.bits(2, 2) // dynamic
	w.bits(0, 5) // HLIT: 257 codes
	w.bits(0, 5) // HDIST: 1 code
	w.bits(3, 4) // HCLEN: the lengths of 16, 17, 18, 0, 8, 7 and 9
	// The code-length code: 8 in one bit, 0 and 9 in two.
	for _, l := range []uint{0, 0, 0, 2, 1, 0, 2} {
		w.bits(l, 3)
	}
	clen := canonicalCodes([]uint8{0: 2, 8: 1, 9: 2})
	lens := make([]uint8, 258)
	for s := range 257 {
		lens[s] = 8
		if s >= 255 {
			lens[s] = 9
		}
	}
	for _, l := range lens {
		w.code(clen[l], map[uint8]uint{0: 2, 8: 1, 9: 2}[l])
	}
	lit := canonicalCodes(lens[:257])
	for _, c := range raw {
		w.code(lit[c], uint(lens[c]))
	}
	w.code(lit[256], 9)
	member := []byte{0x1f, 0x8b, 8, 1 << 2, 0, 0, 0, 0, 0, 255, byte(len(memberExtra)), 0}
	member = append(member, memberExtra...)
	body := w.flush()
	binary.LittleEndian.PutUint32(member[memberLenAt:], uint32(len(member)+len(body)+8))
	return gzipTrailer(append(member, body...), raw)
}

// gzipTrailer appends raw's CRC-32 and length to member.
func gzipTrailer(member, raw []byte) []byte {
	member = binary.LittleEndian.AppendUint32(member, crc32.ChecksumIEEE(raw))
	return binary.LittleEndian.AppendUint32(member, uint32(len(raw)))
}

// canonicalCodes assigns the canonical Huffman codes of RFC 1951 §3.2.2 to
// lens, one per symbol.
func canonicalCodes(lens []uint8) []uint {
	var count, next [16]uint
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// lsbWriter packs a deflate stream least significant bit first.
type lsbWriter struct {
	out []byte
	acc uint64
	n   uint
}

// bits writes v's low n bits, low bit first, as deflate writes numbers.
func (w *lsbWriter) bits(v, n uint) {
	w.acc |= uint64(v) << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes an n-bit Huffman code, high bit first, as deflate writes
// codes.
func (w *lsbWriter) code(c, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.bits(c>>i&1, 1)
	}
}

// flush pads the last byte with zeros and returns the stream.
func (w *lsbWriter) flush() []byte {
	if w.n > 0 {
		w.out = append(w.out, byte(w.acc))
	}
	return w.out
}

// TestRefusedMembersFailOpen: a member the writer never writes — a header
// with FNAME or FHCRC, a block whose distance code is empty — is refused by
// the archive's decoder, whose verdict is final, even though compress/gzip
// reads it: a segment holding one between members the writer does write
// fails to open with ErrCorrupt, naming the member's offset and what was
// refused.
func TestRefusedMembersFailOpen(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		nums := []int64{6, 2, 5, 1, 4, 3}
		stream := fuzzStream(nums, payload)
		cut := len(stream) / 3
		parts := [][]byte{stream[:cut], stream[cut : 2*cut], stream[2*cut:]}
		first := levelMember(t, segmentLevel, parts[0], gzip.Header{})
		last := levelMember(t, segmentLevel, parts[2], gzip.Header{})
		for _, tc := range []struct {
			name   string
			member []byte
			want   string
		}{
			{"FNAME", levelMember(t, segmentLevel, parts[1], gzip.Header{Name: "segment", Comment: "named"}), "header flags 0x1c"},
			{"FHCRC", headerCRCMember(t, parts[1]), "header flags 0x06"},
			{"no distance code", literalOnlyMember(parts[1]), "deflate stream does not decode"},
		} {
			t.Run(tc.name, func(t *testing.T) {
				if n, ok := memberLen(tc.member); !ok || n != len(tc.member) {
					t.Fatalf("the member states length %d (%v), is %d bytes", n, ok, len(tc.member))
				}
				if got, err := stdGunzip(tc.member); err != nil || !bytes.Equal(got, parts[1]) {
					t.Fatalf("compress/gzip reads the member as %d bytes: %v", len(got), err)
				}
				obj := bytes.Join([][]byte{first, tc.member, last}, nil)
				ctx := context.Background()
				st := blobstore.NewMemory()
				seg := SegmentInfo{File: segmentName(1), CompBytes: int64(len(obj)), SHA256: sha256Hex(obj)}
				seg.Blocks, seg.RawBytes, seg.Min, seg.Max = honestEntry(stream)
				if err := st.Put(ctx, seg.File, obj); err != nil {
					t.Fatal(err)
				}
				if err := saveManifest(ctx, st, Manifest{Version: manifestVersion, Chain: "eos", Segments: []SegmentInfo{seg}}); err != nil {
					t.Fatal(err)
				}
				_, err := OpenWith("", OpenOptions{Store: st, Workers: 2})
				want := fmt.Sprintf("segment-000001.gz: gzip member at byte %d: %s", len(first), tc.want)
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(fmt.Sprint(err), want) {
					t.Fatalf("open: %v, want ErrCorrupt saying %q", err, want)
				}
			})
		}
	})
}
