package core

import (
	"context"
	"runtime"

	"repro/internal/archive"
)

// IngestArchive replays an archived crawl straight into the decoder:
// cfg.Workers goroutines (0 means one per CPU — replay is CPU-bound,
// unlike a live crawl) claim record ranges from archive.Reader.Replay —
// ranges, not segments, so a one-segment archive keeps every worker busy —
// each decoding its records in place and folding them into a private
// shard when d is a ShardedDecoder. Which worker's shard a block lands in
// depends on scheduling; the merged aggregate does not. Memory beyond the
// reader's segment cache is at most cfg.Workers inflated segments. Each
// worker batches cfg.Batch decoded blocks between shard folds so arena
// structs recycle in bulk; the shards merge in worker order after the
// walk, so the whole replay takes exactly cfg.Workers aggregator lock
// acquisitions. A non-sharded decoder falls back to batched IngestBatch
// under the aggregator lock.
//
// Compared with driving collect.Stream over the Reader's FetchBlock, this
// path skips the per-block copy, the channel hop and the segment-cache
// contention: raw payloads alias the decompressed segment and are decoded
// where they lie (the wire codecs copy every string they keep). The
// resulting aggregate is identical either way — and identical to the live
// crawl's — because every aggregate is order-independent.
//
// It returns the number of blocks ingested and the first
// decode/ingest/corruption error.
func IngestArchive(ctx context.Context, rd *archive.Reader, d Decoder, cfg IngestConfig) (int64, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := newIngestPool(d, workers, cfg.Batch)
	return pool.drain(rd.Replay(ctx, workers, pool.add))
}
