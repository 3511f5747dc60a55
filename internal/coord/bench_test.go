package coord

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/wire"
)

// BenchmarkLeaseClaim measures one full lease cycle — claim (Get, Put,
// read-back verify) and release — against the in-memory store: the
// coordination overhead a slice pays before any crawling starts.
func BenchmarkLeaseClaim(b *testing.B) {
	store := blobstore.NewMemory()
	leases := NewLeases(store, "bench", time.Minute)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := leases.Claim(ctx, "bench-task")
		if err != nil {
			b.Fatal(err)
		}
		if err := leases.Release(ctx, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunStateCheckpoint measures one coordinator run-state
// checkpoint — marshal the full task map and Put it — the cost the
// coordinator pays on EVERY task transition, so it bounds how fine-
// grained the transitions can afford to be.
func BenchmarkRunStateCheckpoint(b *testing.B) {
	state := &RunState{
		Chain: "eos", From: 1, To: 1_000_000, Shards: 16,
		Owner: "bench", Epoch: 3,
		Tasks: make(map[string]*TaskRecord, 16),
	}
	span := int64(1_000_000 / 16)
	for i := 1; i <= 16; i++ {
		from := int64(i-1)*span + 1
		t := Task{Index: i, N: 16, Chain: "eos", From: from, To: from + span - 1}
		state.Tasks[t.Name()] = &TaskRecord{
			Index: i, From: t.From, To: t.To,
			State: TaskRunning, Fence: uint64(i), Attempts: 2,
		}
	}
	store := blobstore.NewMemory()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SaveRunState(ctx, store, state, time.Now()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFenceStamp measures stamping a fence into an already-encoded
// shard blob (the wire re-seal EncodeShard performs) plus reading it back
// — the per-emission overhead fencing adds to a worker.
func BenchmarkFenceStamp(b *testing.B) {
	st, err := core.NewShardState("eos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	st.SetCovered(core.BlockRange{From: 1, To: 256})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := core.EncodeShard(st, uint64(i%7)+1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.ShardFence(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardCheckpoint measures one crash-recovery checkpoint: encode
// the full aggregate state and Put it to the store — the cost a worker
// pays per completed chunk.
func BenchmarkShardCheckpoint(b *testing.B) {
	st, err := core.NewShardState("tezos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]any, 0, 256)
	for num := int64(1); num <= 256; num++ {
		batch = append(batch, &wire.TezosBlockJSON{
			Level:     num,
			Timestamp: chain.ObservationStart.Add(time.Duration(num) * time.Minute).Format(time.RFC3339),
			Baker:     "tz1baker",
			Operations: []wire.TezosOperationJSON{
				{Kind: "endorsement", Source: "tz1alice", Level: num - 1, SlotCount: 2},
			},
		})
	}
	if err := st.IngestBatch(batch); err != nil {
		b.Fatal(err)
	}
	st.SetCovered(core.BlockRange{From: 1, To: 256})

	store := blobstore.NewMemory()
	key := CheckpointKey("tezos", 1, 256)
	ctx := context.Background()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := st.EncodeTo(&buf, 0); err != nil {
			b.Fatal(err)
		}
		if err := store.Put(ctx, key, buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}
