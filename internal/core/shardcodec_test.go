package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/wire"
)

// encodeState is a test helper: one shard state to a sealed blob.
func encodeState(t testing.TB, st ShardState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.EncodeTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
		if err := other.DecodeFrom(bytes.NewReader(blob)); err == nil {
			t.Fatal("decoding an eos blob into a tezos shard succeeded")
		}
	})
	t.Run("unknown chain", func(t *testing.T) {
		alien := wire.SealShard("doge", 0, []byte{1, 2, 3})
		if _, err := DecodeShard(alien); err == nil {
			t.Fatal("unknown-chain blob decoded without error")
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
		fence, err := wire.ShardFence(blob)
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
}

// FuzzShardDecode drives arbitrary bytes through the whole decode path:
// any input may error but must never panic, and anything that decodes must
// re-encode cleanly (no partially-initialized state escapes), answer every
// figure query, and merge — into a state of its own window, where Merge
// may accept or refuse it, and into a differently windowed one, where the
// window check must refuse it before stats.TimeSeries.Merge could panic on
// misaligned buckets.
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
		var buf bytes.Buffer
		if err := st.EncodeTo(&buf, 0); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, blob := range goldenShards(f) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		st, err := DecodeShard(blob)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := st.EncodeTo(&buf, 0); err != nil {
			t.Fatalf("decoded state failed to re-encode: %v", err)
		}
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
	})
}

// queryFigures renders every section the fleet prints from a chain's
// state, and the ones a directory and a scale add, then runs the queries
// the simulator report's own sections read (Figures 9 and 11b), discarding
// the answers: FuzzShardDecode only asks that none panics on decoded state.
func queryFigures(st ShardState) {
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
