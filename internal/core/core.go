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
//   - eosstats.go, tezosstats.go, xrpstats.go: one locked aggregator per
//     chain (NewEOSAggregator, …) wrapping a single-owner shard value
//     (EOSShard, …), plus the figure queries (TopReceivers, Decompose, …).
//     An aggregator ingests through IngestBatch, hands out private shard
//     states with NewState and folds them back with MergeState.
//   - shardstate.go: ShardState, the one contract every chain's mergeable
//     state implements, with Window, BlockRange and NewShardState.
//   - ingest.go, replay.go: the ingest pool. Decoder (one per aggregator,
//     from its Decoder method) with the ShardedDecoder, Shard and
//     BatchReleaser refinements; IngestStream, IngestCrawl and
//     IngestArchive, which all run the same per-worker batch/flush/merge
//     loop; PeriodicMerge for the serving layer's mid-crawl merges.
//   - shardcodec.go, shardio.go: the shard wire schemas behind
//     ShardState.EncodeTo/DecodeFrom (EncodeShard, DecodeShard) and shard
//     blob I/O over internal/blobstore — one spelling each: EmitShard,
//     LoadShards, MergeShards.
//   - summary.go: ChainSummary (the deterministic figures footprint and
//     its Render) and StatsKit/NewStatsKit (a chain's stack by name).
//   - tps.go, washtrade.go, spamcluster.go: the throughput estimators and
//     the case-study detectors.
package core
