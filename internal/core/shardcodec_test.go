package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/testkit"
	"repro/internal/wire"
)

// encodeState is a test helper: one shard state to an unfenced sealed blob.
func encodeState(t testing.TB, st ShardState) []byte {
	t.Helper()
	return st.EncodeTo(nil, 0)
}

// testShardCodecRoundTrip is the tentpole property at unit scale: split a
// block set into contiguous partitions, ingest each into its own
// ShardState, encode → decode every shard, merge the decoded copies, and
// the merged figures must be byte-identical to a single state that
// ingested everything. It also asserts decode→re-encode reproduces the
// original blob bit-for-bit — the codec is canonical, not just faithful.
func testShardCodecRoundTrip[B any](t *testing.T, chainName string, blocks []B) {
	t.Helper()
	single, err := NewShardState(chainName, chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.IngestBatch(asBatch(blocks)); err != nil {
		t.Fatal(err)
	}
	single.SetCovered(BlockRange{From: 1, To: int64(len(blocks))})
	want := Figures(single)
	if want == "" {
		t.Fatal("baseline render is empty — generator produced no data")
	}

	for _, parts := range []int{1, 2, 3, 5} {
		merged, err := NewShardState(chainName, chain.ObservationStart, 6*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		per := (len(blocks) + parts - 1) / parts
		for i := 0; i < parts; i++ {
			lo, hi := i*per, (i+1)*per
			if hi > len(blocks) {
				hi = len(blocks)
			}
			st, err := NewShardState(chainName, chain.ObservationStart, 6*time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.IngestBatch(asBatch(blocks[lo:hi])); err != nil {
				t.Fatal(err)
			}
			st.SetCovered(BlockRange{From: int64(lo + 1), To: int64(hi)})
			blob := encodeState(t, st)

			dec, err := DecodeShard(blob)
			if err != nil {
				t.Fatalf("%d-way partition %d: decode: %v", parts, i, err)
			}
			if dec.Chain() != chainName {
				t.Fatalf("decoded chain %q, want %q", dec.Chain(), chainName)
			}
			if got, want := dec.Covered(), st.Covered(); got != want {
				t.Fatalf("decoded covered range %s, want %s", got, want)
			}
			// Canonical: re-encoding the decoded state reproduces the blob.
			if reblob := encodeState(t, dec); !bytes.Equal(reblob, blob) {
				t.Fatalf("%d-way partition %d: decode→re-encode is not byte-identical (%d vs %d bytes)",
					parts, i, len(reblob), len(blob))
			}
			if err := merged.Merge(dec); err != nil {
				t.Fatalf("%d-way partition %d: merge: %v", parts, i, err)
			}
		}
		if got := Figures(merged); got != want {
			t.Fatalf("%d-way sharded render diverged\n--- single ---\n%s\n--- merged ---\n%s", parts, want, got)
		}
		if got, want := merged.Covered(), (BlockRange{From: 1, To: int64(len(blocks))}); got != want {
			t.Fatalf("merged covered range %s, want %s", got, want)
		}
	}
}

func TestShardCodecRoundTripEOS(t *testing.T) {
	testShardCodecRoundTrip(t, "eos", genEOSBlocks(64))
}

func TestShardCodecRoundTripTezos(t *testing.T) {
	testShardCodecRoundTrip(t, "tezos", genTezosBlocks(64))
}

func TestShardCodecRoundTripXRP(t *testing.T) {
	testShardCodecRoundTrip(t, "xrp", genXRPLedgers(64))
}

// TestShardCodecXRPExchanges covers the explorer's exchange records: an
// XRP shard that absorbed them through AddExchanges must carry them through
// encode/decode (they feed the rate oracle behind Figure 7).
func TestShardCodecXRPExchanges(t *testing.T) {
	agg := newShard[*XRPShard]()
	if err := agg.IngestBatch(asBatch(genXRPLedgers(16))); err != nil {
		t.Fatal(err)
	}
	agg.AddExchanges(genExchanges(8))
	agg.SetCovered(BlockRange{From: 1, To: 16})
	blob := encodeState(t, agg)
	dec, err := DecodeShard(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(dec.(*XRPShard).exchanges), len(agg.exchanges); got != want {
		t.Fatalf("decoded %d exchanges, want %d", got, want)
	}
	if got, want := Figures(dec), Figures(agg); got != want {
		t.Fatalf("render diverged after exchange round-trip\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestShardDecodeRejectsDamage: every structural failure mode errors and
// none panics — truncation at each length, a flipped bit at each byte, a
// future version, trailing junk, and a chain mismatch.
func TestShardDecodeRejectsDamage(t *testing.T) {
	st, err := NewShardState("eos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.IngestBatch(asBatch(genEOSBlocks(8))); err != nil {
		t.Fatal(err)
	}
	st.SetCovered(BlockRange{From: 1, To: 8})
	blob := encodeState(t, st)

	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(blob); n++ {
			if _, err := DecodeShard(blob[:n]); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(blob))
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for i := range blob {
			dam := bytes.Clone(blob)
			dam[i] ^= 0x40
			if _, err := DecodeShard(dam); err == nil {
				t.Fatalf("flipping a bit in byte %d/%d decoded without error", i, len(blob))
			}
		}
	})
	t.Run("trailing junk", func(t *testing.T) {
		if _, err := DecodeShard(append(bytes.Clone(blob), 0xAB)); err == nil {
			t.Fatal("trailing junk decoded without error")
		}
	})
	// sealAs hand-seals an envelope under a version this build does not
	// read, without the fence field; checksum and structure are otherwise
	// valid.
	sealAs := func(version uint64, body []byte) []byte {
		b := []byte(wire.ShardMagic)
		b = binary.AppendUvarint(b, version)
		b = binary.AppendUvarint(b, uint64(len("eos")))
		b = append(b, "eos"...)
		b = binary.AppendUvarint(b, uint64(len(body)))
		b = append(b, body...)
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	t.Run("future version", func(t *testing.T) {
		_, err := DecodeShard(sealAs(wire.ShardVersion+1, []byte{1, 2, 3}))
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("future version error = %v, want version error", err)
		}
	})
	t.Run("retired version 1", func(t *testing.T) {
		// What an older build's unfenced emit (or ckpt/*.state) left in a
		// store: this very body, sealed without the fence field. It is
		// refused by version (coord's shard reader adds the key to delete).
		_, _, body, err := wire.OpenShard(blob)
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeShard(sealAs(1, body))
		if err == nil || !strings.Contains(err.Error(), "version 1 not supported") {
			t.Fatalf("version-1 blob error = %v, want a version error", err)
		}
	})
	t.Run("retired version 2", func(t *testing.T) {
		// A real blob of the format before this one — fenced, but carrying
		// state no figure reads and float sums — is refused by version, not
		// half-read.
		blob, err := os.ReadFile(filepath.Join("testdata", "shards", "eos-v2.shard"))
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeShard(blob)
		if err == nil || !strings.Contains(err.Error(), "version 2 not supported") {
			t.Fatalf("version-2 blob error = %v, want a version error", err)
		}
	})
	t.Run("chain mismatch", func(t *testing.T) {
		other := &TezosShard{}
		other.init(chain.ObservationStart, 6*time.Hour)
		if err := other.DecodeFrom(blob); err == nil {
			t.Fatal("decoding an eos blob into a tezos shard succeeded")
		}
	})
	t.Run("unknown chain", func(t *testing.T) {
		alien := wire.SealShard(nil, "doge", 0, []byte{1, 2, 3})
		if _, err := DecodeShard(alien); err == nil {
			t.Fatal("unknown-chain blob decoded without error")
		}
	})
}

// TestShardDecodeRefusesOutOfRangeValues: a field the state keeps in a
// narrower integer than the wire's uvarint — an XRP destination tag, an
// executed offer's sequence, an exchange's maker sequence, an EOS trade's
// precision — is corrupt when the blob carries a value past that type, and
// is never wrapped into it. So is a series cell the fold cannot have made:
// one past the bucket of the shard's last observed time, or one past
// maxSeriesBuckets however narrow the window (a summary of a cell at
// bucket 1<<40 would ask for 8 TiB). Each case takes a valid blob, swaps
// the field's encoded value for one past its bound and re-seals the body
// with a valid checksum.
func TestShardDecodeRefusesOutOfRangeValues(t *testing.T) {
	const (
		tag      = 0x0FEDCBA9
		offerSeq = 0x0EDCBA98
		makerSeq = 0x0DCBA987
		prec     = 0x0CBA9876
		cell     = 0x3A987 // a bucket under maxSeriesBuckets
	)
	xrp := newShard[*XRPShard]()
	xrp.byAccount["rTagger"] = &xrpAccountAgg{Total: 1, DestTags: map[uint32]int64{tag: 1}}
	xrp.offersExecuted[offerRef{Account: "rMaker", Sequence: offerSeq}] = true
	xrp.exchanges = []XRPExchange{{Time: chain.ObservationStart, Maker: "rMaker", MakerSequence: makerSeq}}
	xrp.SetCovered(BlockRange{From: 1, To: 1})
	eos := newShard[*EOSShard]()
	eos.Trades = []DEXTrade{{Buyer: "alice", Seller: "bob", Currency: "DICE", Precision: prec, Amount: 1}}
	eos.SetCovered(BlockRange{From: 1, To: 1})
	// series returns an EOS shard of one cell at bucket cell under a window
	// of width w, whose last block falls in bucket lastBucket.
	series := func(w time.Duration, lastBucket int64) ShardState {
		st, err := NewShardState("eos", chain.ObservationStart, w)
		if err != nil {
			t.Fatal(err)
		}
		s := st.(*EOSShard)
		s.Series.AddBucket(cell, "Tokens", 1)
		s.FirstBlockTime = chain.ObservationStart
		s.LastBlockTime = chain.ObservationStart.Add(time.Duration(lastBucket) * w)
		s.SetCovered(BlockRange{From: 1, To: 1})
		return s
	}

	for _, c := range []struct {
		name string
		st   ShardState
		val  uint64
		past uint64 // past the field's type: uint32 wraps it to val; precision is past int32
	}{
		{"xrp dest tag", xrp, tag, 1<<32 | tag},
		{"xrp offer sequence", xrp, offerSeq, 1<<32 | offerSeq},
		{"xrp maker sequence", xrp, makerSeq, 1<<32 | makerSeq},
		{"eos trade precision", eos, prec, 1<<40 | prec},
		{"series bucket past the last block's", series(6*time.Hour, cell), cell, 1<<40 | cell},
		{"series bucket past the span bound", series(time.Nanosecond, 1<<41), cell, 1<<40 | cell},
	} {
		t.Run(c.name, func(t *testing.T) {
			blob := encodeState(t, c.st)
			if _, err := DecodeShard(blob); err != nil {
				t.Fatalf("the blob before the swap: %v", err)
			}
			chainName, _, body, err := wire.OpenShard(blob)
			if err != nil {
				t.Fatal(err)
			}
			old, past := binary.AppendUvarint(nil, c.val), binary.AppendUvarint(nil, c.past)
			if n := bytes.Count(body, old); n != 1 {
				t.Fatalf("the value's encoding occurs %d times in the body, want 1", n)
			}
			resealed := wire.SealShard(nil, chainName, 0, bytes.Replace(body, old, past, 1))
			if _, err := DecodeShard(resealed); !errors.Is(err, wire.ErrShardCorrupt) {
				t.Fatalf("value %#x decoded with err = %v, want ErrShardCorrupt", c.past, err)
			}
		})
	}
}

// TestShardCodecAllocs pins what the codec allocates: an encode into a
// warm, reused buffer nothing, EncodeShard the blob it returns and nothing
// else, and a decode of the golden XRP shard — 16 ledgers, payments and
// eight exchanges over a few dozen distinct strings — at most the count
// measured when strings began to be interned: 64, against 201 when every
// string read allocated afresh.
func TestShardCodecAllocs(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	for _, st := range codecStates(64) {
		buf := st.EncodeTo(nil, 0)
		if allocs := testing.AllocsPerRun(100, func() { buf = st.EncodeTo(buf[:0], 0) }); allocs != 0 {
			t.Errorf("%s: EncodeTo into a reused buffer: %.0f allocs, want 0", st.Chain(), allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = EncodeShard(st, 7) }); allocs != 1 {
			t.Errorf("%s: EncodeShard: %.0f allocs, want 1", st.Chain(), allocs)
		}
	}
	blob := goldenShards(t)["xrp"]
	const most = 64
	if allocs := testing.AllocsPerRun(100, func() { _, _ = DecodeShard(blob) }); allocs > most {
		t.Errorf("DecodeShard of the golden xrp shard: %.0f allocs, want at most %d", allocs, most)
	}
}

// codecStates builds one state per chain from n generated blocks, the XRP
// one with explorer exchanges too, each covering [1, n].
func codecStates(n int) []ShardState {
	eos := newShard[*EOSShard]()
	tez := newShard[*TezosShard]()
	xrp := newShard[*XRPShard]()
	for _, err := range []error{
		eos.IngestBatch(asBatch(genEOSBlocks(n))),
		tez.IngestBatch(asBatch(genTezosBlocks(n))),
		xrp.IngestBatch(asBatch(genXRPLedgers(n))),
	} {
		if err != nil {
			panic(err)
		}
	}
	xrp.AddExchanges(genExchanges(n / 4))
	states := []ShardState{eos, tez, xrp}
	for _, st := range states {
		st.SetCovered(BlockRange{From: 1, To: int64(n)})
	}
	return states
}

// TestConcurrentEncodeShard: encoders come from one pool, so eight
// goroutines encoding distinct states of every chain at once must each get
// exactly the blob a serial encode of their state gives — no scratch slice
// or body buffer shared between two encodes in flight.
func TestConcurrentEncodeShard(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const goroutines = 8
		states := make([][]ShardState, goroutines)
		want := make([][][]byte, goroutines)
		for g := range states {
			states[g] = codecStates(8 + 4*g)
			for _, st := range states[g] {
				blob, err := EncodeShard(st, uint64(g))
				if err != nil {
					t.Fatal(err)
				}
				want[g] = append(want[g], blob)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := range states {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []byte
				for round := 0; round < 20; round++ {
					for i, st := range states[g] {
						if round%2 == 0 {
							buf, _ = EncodeShard(st, uint64(g))
						} else {
							buf = st.EncodeTo(buf[:0], uint64(g))
						}
						if !bytes.Equal(buf, want[g][i]) {
							errs <- fmt.Errorf("goroutine %d, %s, round %d: blob differs from its serial encode", g, st.Chain(), round)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// goldenShards reads the committed blobs under testdata/shards: one
// version-3 shard per chain — the EOS and Tezos fuzz seeds (four generated
// blocks each, unfenced), and an XRP shard of sixteen generated ledgers
// carrying payments and eight explorer exchanges, sealed at fence 3.
func goldenShards(t testing.TB) map[string][]byte {
	t.Helper()
	blobs := make(map[string][]byte)
	for _, name := range []string{"eos", "tezos", "xrp"} {
		blob, err := os.ReadFile(filepath.Join("testdata", "shards", name+".shard"))
		if err != nil {
			t.Fatal(err)
		}
		blobs[name] = blob
	}
	return blobs
}

// TestShardGoldenBlobs: a blob an earlier build emitted decodes here and
// re-encodes to the same bytes — the shard format did not move with the
// types behind it, so stores written before this build still merge.
func TestShardGoldenBlobs(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		for name, blob := range goldenShards(t) {
			st, err := DecodeShard(blob)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if st.Chain() != name {
				t.Fatalf("%s: decoded chain %q", name, st.Chain())
			}
			if xs, ok := st.(*XRPShard); ok && len(xs.exchanges) != 8 {
				t.Fatalf("golden xrp shard decoded %d exchanges, want 8", len(xs.exchanges))
			}
			_, fence, _, err := wire.OpenShard(blob)
			if err != nil {
				t.Fatal(err)
			}
			again, err := EncodeShard(st, fence)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, blob) {
				t.Fatalf("%s: decode→re-encode moved the bytes (%d vs %d)", name, len(again), len(blob))
			}
		}
	})
}

// The bytes one DecodeShard call may allocate: decodeAllocPerByte for each
// byte of the blob, plus decodeAllocFixed. Every collection the decoder
// sizes from a count is capped by the bytes left to fill it (Count,
// capHint), and everything else it allocates is paid for by input it
// consumed: the intern table holds at most one entry per non-empty
// length-prefixed string, and each string, map entry and series cell costs
// at least two or three encoded bytes. The dearest input per byte is a
// 3-byte element that opens a fresh container — a nested count map's
// outer key with an empty inner map (a new map, an outer slot and an intern
// slot) or a series cell in a new bucket — about 105 bytes allocated per
// blob byte at worst over 1 to 256 such elements; 128 leaves a quarter
// above that. The fixed part is the empty state's containers and, on a
// refusal, the error (under 600 bytes measured).
const (
	decodeAllocPerByte = 128
	decodeAllocFixed   = 4 << 10
)

// FuzzShardDecode drives arbitrary bytes through the whole decode path:
// any input may error but must never panic or allocate past
// decodeAllocPerByte × len(blob) + decodeAllocFixed bytes, and anything
// that decodes must re-encode cleanly (no partially-initialized state
// escapes), answer every figure query, and merge — into a state of its own
// window, where Merge may accept or refuse it, and into a differently
// windowed one, where the window check must refuse it before
// stats.TimeSeries.Merge could panic on misaligned buckets.
func FuzzShardDecode(f *testing.F) {
	for _, seed := range [][]byte{
		{}, []byte("SHRD"), []byte("not a shard at all"),
	} {
		f.Add(seed)
	}
	eos, _ := NewShardState("eos", chain.ObservationStart, 6*time.Hour)
	_ = eos.IngestBatch(asBatch(genEOSBlocks(4)))
	eos.SetCovered(BlockRange{From: 1, To: 4})
	tez, _ := NewShardState("tezos", chain.ObservationStart, 6*time.Hour)
	_ = tez.IngestBatch(asBatch(genTezosBlocks(4)))
	tez.SetCovered(BlockRange{From: 1, To: 4})
	xr, _ := NewShardState("xrp", chain.ObservationStart, 6*time.Hour)
	_ = xr.IngestBatch(asBatch(genXRPLedgers(4)))
	xr.SetCovered(BlockRange{From: 1, To: 4})
	for _, st := range []ShardState{eos, tez, xr} {
		f.Add(st.EncodeTo(nil, 0))
	}
	for _, blob := range goldenShards(f) {
		f.Add(blob)
	}
	f.Fuzz(checkShardBlob)
}

// FuzzShardBody is FuzzShardDecode behind the envelope: nearly every
// mutation of a whole blob fails its CRC-32 in wire.OpenShard before one
// body byte is read, so this target seals each fuzzed body, for the chain
// its first argument picks, and runs the same checks on the blob. It is
// seeded with the golden bodies.
func FuzzShardBody(f *testing.F) {
	chains := []string{"eos", "tezos", "xrp"}
	for name, blob := range goldenShards(f) {
		_, _, body, err := wire.OpenShard(blob)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(slices.Index(chains, name)), body)
	}
	f.Fuzz(func(t *testing.T, pick uint8, body []byte) {
		checkShardBlob(t, wire.SealShard(nil, chains[int(pick)%len(chains)], 0, body))
	})
}

// checkShardBlob is what both fuzz targets ask of one blob: decoding it
// may fail but must not panic or allocate past the bound, and a state it
// decodes to must re-encode, summarize, answer every figure query and
// merge (see FuzzShardDecode).
func checkShardBlob(t *testing.T, blob []byte) {
	st, got, err := decodeCounted(blob)
	most := uint64(decodeAllocPerByte*len(blob) + decodeAllocFixed)
	if got > most {
		// MemStats counts the whole process, and the fuzzing engine's
		// own goroutines allocate now and then: a decode is over the
		// bound only when a second reading is too.
		_, got, _ = decodeCounted(blob)
	}
	if got > most {
		t.Fatalf("decoding %d bytes allocated %d bytes, over the bound of %d", len(blob), got, most)
	}
	if err != nil {
		return
	}
	st.EncodeTo(nil, 0)
	queryFigures(st)

	w := st.Window()
	otherBucket := 7 * time.Hour
	if w.Bucket == otherBucket {
		otherBucket = 5 * time.Hour
	}
	other, err := NewShardState(st.Chain(), chain.ObservationStart, otherBucket)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Merge(st); err == nil {
		t.Fatalf("merged a %s shard into a %s one", w, other.Window())
	}
	same, err := NewShardState(st.Chain(), w.Origin, w.Bucket)
	if err != nil {
		t.Fatal(err)
	}
	if same.Merge(st) == nil {
		queryFigures(same)
	}
}

// decodeCounted decodes blob and reports the bytes the process allocated
// meanwhile.
func decodeCounted(blob []byte) (ShardState, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := DecodeShard(blob)
	runtime.ReadMemStats(&after)
	return st, after.TotalAlloc - before.TotalAlloc, err
}

// queryFigures takes the state's summary, renders every section the fleet
// prints from it and the ones a directory and a scale add, then runs the
// queries the simulator report's own sections read (Figures 9 and 11b),
// discarding the answers: the fuzz targets only ask that none panics, or
// runs out of memory, on decoded state.
func queryFigures(st ShardState) {
	_ = st.Summary()
	_ = Figures(st)
	_ = paperWithDirectory(st).render()
	switch s := st.(type) {
	case *TezosShard:
		s.VoteSeries("proposals", 24*time.Hour)
		s.VoteSeries("ballot", 24*time.Hour)
	case *XRPShard:
		s.RateSeries(XRPAssetKey{Currency: "BTC", Issuer: "rGateway"})
	}
}

// genExchanges fabricates explorer exchange records for the XRP tests.
func genExchanges(n int) []XRPExchange {
	out := make([]XRPExchange, n)
	for i := range out {
		out[i] = XRPExchange{
			Time:          chain.ObservationStart.Add(time.Duration(i) * time.Hour),
			Base:          XRPAssetKey{Currency: "BTC", Issuer: "rGateway"},
			Counter:       XRPAssetKey{Currency: "XRP"},
			BaseValue:     int64(1_000_000 + i),
			CounterValue:  int64(9_000_000 * (i + 1)),
			Maker:         fmt.Sprintf("rMaker%d", i%3),
			MakerSequence: uint32(100 + i),
		}
	}
	return out
}
