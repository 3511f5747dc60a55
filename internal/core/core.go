// Package core implements the paper's measurement pipeline: classification
// of every transaction on EOS, Tezos and XRP, per-category and per-account
// aggregation, throughput time series, and the case-study detectors
// (WhaleEx wash-trading, EIDOS boomerangs, XRP zero-value payments,
// Tezos governance). It consumes the same wire JSON the collectors fetch
// (the internal/wire shapes), so the whole analysis runs off crawled data
// rather than simulator internals.
//
// The surface, by file:
//
//   - eosstats.go, tezosstats.go, xrpstats.go: one single-owner shard
//     value per chain (EOSShard, TezosShard, XRPShard) with its unlocked
//     figure queries (TopReceivers, Decompose, …); the caller owns the
//     shard while it reads them.
//   - shardstate.go: ShardState, the one contract every chain's mergeable
//     state implements, with Window, BlockRange and NewShardState.
//   - ingest.go, replay.go: the ingest pool and core's one lock. A
//     StatsKit's state sits behind that lock; its Decoder (with the
//     ShardedDecoder, Shard and BatchReleaser refinements) spawns worker
//     shards from the state and merges them back under it. IngestCrawl,
//     IngestArchive and IngestChunks all run the same per-worker
//     batch/flush/merge loop over those shards, and refuse a decoder that
//     has none; PeriodicMerge serves the serving layer's mid-crawl merges.
//   - shardcodec.go: the shard wire schemas behind
//     ShardState.EncodeTo/DecodeFrom, and EncodeShard / DecodeShard over a
//     sealed blob. Where shard blobs live in a store, and how a set of
//     them is validated and merged, belongs to internal/coord: core never
//     imports internal/blobstore.
//   - summary.go, paper.go: ChainSummary (the summary and its Render),
//     StatsKit/NewStatsKit (a chain's stack by name), and the paper's
//     shard-derived sections on Paper, which Figures prints after the
//     summaries on every path from stored bytes.
//   - tps.go, washtrade.go, spamcluster.go: the throughput estimators and
//     the case-study detectors.
package core
