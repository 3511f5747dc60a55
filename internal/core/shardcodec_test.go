package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/blobstore"
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
	want := single.Summary().Render()
	if want == "" {
		t.Fatal("baseline render is empty — generator produced no data")
	}

	for _, parts := range []int{1, 2, 3, 5} {
		var decoded []ShardBlob
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
			decoded = append(decoded, ShardBlob{State: dec})
		}
		merged, _, err := MergeShards(decoded, false, nil)
		if err != nil {
			t.Fatalf("%d-way merge: %v", parts, err)
		}
		if got := merged.Summary().Render(); got != want {
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

// TestShardCodecXRPExchanges covers the aggregator-only exchange records:
// an XRP shard that absorbed explorer exchanges must carry them through
// encode/decode (they feed the rate oracle behind Figure 7).
func TestShardCodecXRPExchanges(t *testing.T) {
	agg := NewXRPAggregator(chain.ObservationStart, 6*time.Hour)
	if err := agg.IngestBatch(asBatch(genXRPLedgers(16))); err != nil {
		t.Fatal(err)
	}
	agg.AddExchanges(genExchanges(8))
	agg.XRPShard.SetCovered(BlockRange{From: 1, To: 16})
	blob := encodeState(t, &agg.XRPShard)
	dec, err := DecodeShard(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(dec.(*XRPShard).exchanges), len(agg.exchanges); got != want {
		t.Fatalf("decoded %d exchanges, want %d", got, want)
	}
	if got, want := dec.Summary().Render(), agg.XRPShard.Summary().Render(); got != want {
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
		// refused by version, and the load names the object to delete.
		_, _, body, err := wire.OpenShard(blob)
		if err != nil {
			t.Fatal(err)
		}
		const key = "eos-0000000001-0000000008.shard"
		store := blobstore.NewMemory()
		if err := store.Put(context.Background(), key, sealAs(1, body)); err != nil {
			t.Fatal(err)
		}
		_, err = LoadShards(context.Background(), store)
		if err == nil || !strings.Contains(err.Error(), "version 1 not supported") || !strings.Contains(err.Error(), key) {
			t.Fatalf("version-1 blob error = %v, want a version error naming %s", err, key)
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

// TestMergeShardsValidation exercises the coordinator's refusal matrix.
func TestMergeShardsValidation(t *testing.T) {
	mk := func(chainName string, from, to int64, origin time.Time, bucket time.Duration) ShardState {
		st, err := NewShardState(chainName, origin, bucket)
		if err != nil {
			t.Fatal(err)
		}
		if from > 0 {
			st.SetCovered(BlockRange{From: from, To: to})
		}
		return st
	}
	o := chain.ObservationStart
	cases := []struct {
		name    string
		shards  []ShardState
		wantErr string
	}{
		{"empty", nil, "no shards"},
		{"chain mismatch", []ShardState{mk("eos", 1, 10, o, time.Hour), mk("tezos", 11, 20, o, time.Hour)}, "different chains"},
		{"window mismatch", []ShardState{mk("eos", 1, 10, o, time.Hour), mk("eos", 11, 20, o, 2*time.Hour)}, "mismatched windows"},
		{"unknown range", []ShardState{mk("eos", 1, 10, o, time.Hour), mk("eos", 0, 0, o, time.Hour)}, "no covered block range"},
		{"overlap", []ShardState{mk("eos", 1, 10, o, time.Hour), mk("eos", 10, 20, o, time.Hour)}, "overlap"},
		{"gap", []ShardState{mk("eos", 1, 10, o, time.Hour), mk("eos", 12, 20, o, time.Hour)}, "gap"},
		{"contiguous ok", []ShardState{mk("eos", 11, 20, o, time.Hour), mk("eos", 1, 10, o, time.Hour)}, ""},
		{"single ok", []ShardState{mk("xrp", 5, 9, o, time.Hour)}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blobs := make([]ShardBlob, len(tc.shards))
			for i, st := range tc.shards {
				blobs[i] = ShardBlob{State: st}
			}
			_, _, err := MergeShards(blobs, false, nil)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestEmitShardCrossBackend: the same shard state emitted to mem:// and
// file:// stores lands byte-identical — the blob depends only on the
// state, never on the backend.
func TestEmitShardCrossBackend(t *testing.T) {
	ctx := context.Background()
	st, err := NewShardState("tezos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.IngestBatch(asBatch(genTezosBlocks(32))); err != nil {
		t.Fatal(err)
	}
	st.SetCovered(BlockRange{From: 1, To: 32})

	locations := []string{
		"mem://shard-cross-backend",
		"file://" + t.TempDir(),
	}
	var blobs [][]byte
	for _, loc := range locations {
		store, err := blobstore.Resolve(loc)
		if err != nil {
			t.Fatal(err)
		}
		key, err := EmitShard(ctx, store, st, 0)
		if err != nil {
			t.Fatalf("emit to %s: %v", loc, err)
		}
		blob, err := store.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)

		loaded, err := LoadShards(ctx, store)
		if err != nil {
			t.Fatal(err)
		}
		if len(loaded) != 1 {
			t.Fatalf("loaded %d shards from %s, want 1", len(loaded), loc)
		}
		if got, want := loaded[0].State.Summary().Render(), st.Summary().Render(); got != want {
			t.Fatalf("render diverged after %s round-trip", loc)
		}
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("mem:// and file:// shard blobs differ (%d vs %d bytes)", len(blobs[0]), len(blobs[1]))
	}
}

// TestEmitShardRequiresRange: emitting a shard that never learned its
// partition must refuse — the coordinator could not validate it.
func TestEmitShardRequiresRange(t *testing.T) {
	st, err := NewShardState("eos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EmitShard(context.Background(), blobstore.NewMemory(), st, 0); err == nil {
		t.Fatal("emitting a shard without a covered range succeeded")
	}
}

// goldenShards reads the committed blobs under testdata/shards: one shard
// per chain as the codec wrote it before core owned the XRP value types
// (PR 23's tree) — the EOS and Tezos fuzz seeds, and an XRP shard carrying
// payments and explorer exchanges, sealed at fence 3.
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
// re-encode cleanly (no partially-initialized state escapes).
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
		_ = st.Summary().Render()
	})
}

// genExchanges fabricates explorer exchange records for the XRP tests.
func genExchanges(n int) []XRPExchange {
	out := make([]XRPExchange, n)
	for i := range out {
		out[i] = XRPExchange{
			Time:          chain.ObservationStart.Add(time.Duration(i) * time.Hour),
			LedgerIndex:   int64(i + 1),
			Base:          XRPAssetKey{Currency: "BTC", Issuer: "rGateway"},
			Counter:       XRPAssetKey{Currency: "XRP"},
			BaseValue:     int64(1_000_000 + i),
			CounterValue:  int64(9_000_000 * (i + 1)),
			Maker:         fmt.Sprintf("rMaker%d", i%3),
			Taker:         fmt.Sprintf("rTaker%d", i%2),
			MakerSequence: uint32(100 + i),
		}
	}
	return out
}
