package serve

import (
	"context"
	"time"

	"repro/internal/archive"
	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/core"
)

// FeedConfig parameterizes one chain's ingest feed into a publisher. Both
// feed shapes (live crawl and archive replay) ingest through
// core.PeriodicMerge, so each worker's private shard folds into the shared
// aggregate every few batches — mid-crawl snapshots see the stream in
// epoch-sized increments instead of only at drain.
type FeedConfig struct {
	// Chain names the feed ("eos", "tezos", "xrp") and keys its snapshot
	// entry. For archive feeds, zero means the archive manifest's chain.
	Chain string
	// Ingest sizes the decode/ingest pool.
	Ingest core.IngestConfig
}

// feedWindow anchors every feed's throughput series at the paper's
// observation window in 6h buckets — the same anchoring cmd/crawl and
// cmd/report use, which keeps a drained feed's figures byte-comparable
// with theirs.
var feedWindow = core.Window{Origin: chain.ObservationStart, Bucket: 6 * time.Hour}

// Feed crawls a live endpoint into the publisher: it registers cfg.Chain,
// streams blocks through the periodic-merge ingest path, and marks the
// chain drained when the crawl returns (the stream is fully folded in by
// then — IngestCrawl drains before returning, even on cancellation).
func (p *Publisher) Feed(ctx context.Context, f collect.BlockFetcher, ccfg collect.CrawlConfig, cfg FeedConfig) (collect.CrawlResult, error) {
	kit, err := core.NewStatsKit(cfg.Chain, feedWindow.Origin, feedWindow.Bucket)
	if err != nil {
		return collect.CrawlResult{}, err
	}
	release, err := p.Register(cfg.Chain, feedWindow, kit.Summarize)
	if err != nil {
		return collect.CrawlResult{}, err
	}
	defer release()
	if ccfg.Tee == nil {
		// No endpoint serves Figure 2's footprint: a no-op tee keeps
		// core.IngestCrawl from deflating every payload to size it.
		ccfg.Tee = func(int64, []byte) error { return nil }
	}
	dec := core.PeriodicMerge(kit.Decoder, 0)
	res, _, err := core.IngestCrawl(ctx, f, ccfg, dec, cfg.Ingest)
	return res, err
}

// FeedArchive replays an opened archive into the publisher: same
// registration and periodic-merge path as Feed, fed by the archive's
// parallel record walk (archive.Reader.Replay) instead of the network. It
// returns the number of blocks ingested.
func (p *Publisher) FeedArchive(ctx context.Context, rd *archive.Reader, cfg FeedConfig) (int64, error) {
	if cfg.Chain == "" {
		cfg.Chain = rd.Chain()
	}
	kit, err := core.NewStatsKit(cfg.Chain, feedWindow.Origin, feedWindow.Bucket)
	if err != nil {
		return 0, err
	}
	release, err := p.Register(cfg.Chain, feedWindow, kit.Summarize)
	if err != nil {
		return 0, err
	}
	defer release()
	dec := core.PeriodicMerge(kit.Decoder, 0)
	return core.IngestArchive(ctx, rd, dec, cfg.Ingest)
}
