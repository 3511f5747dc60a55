package pipeline

import (
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/collect"
)

// stageArchiveDir is the per-stage archive location under Options.ArchiveDir
// ("" when archiving is off). ArchiveDir may be a blob-store URL; the
// stage lands under its path either way.
func (o Options) stageArchiveDir(stage string) string {
	if o.ArchiveDir == "" {
		return ""
	}
	return blobstore.Join(o.ArchiveDir, stage)
}

// replayReader resolves a stage's archive to a replay fetcher.
//
//   - no ArchiveDir, or no manifest yet: (nil, nil) — crawl live into a
//     fresh archive.
//   - a manifest covering [from, to] for the right chain: the Reader; the
//     stage replays it and serves nothing.
//   - a manifest whose blocks all lie INSIDE [from, to] but don't cover it
//     — a run killed mid-crawl: (nil, nil) too; the stage's archive.Crawl
//     serves what is held from storage and fetches only the rest live,
//     extending the archive to full coverage.
//   - anything else — wrong chain, corruption, blocks outside the range
//     (a scale/seed change since the archive was written): an error,
//     because replaying a subset or appending to an archive written under
//     different scenario parameters would silently skew every figure.
func (o Options) replayReader(stage, chain string, from, to int64) (*archive.Reader, error) {
	dir := o.stageArchiveDir(stage)
	if dir == "" {
		return nil, nil
	}
	rd, err := archive.OpenWith(dir, archive.OpenOptions{})
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: stage %s archive: %w", stage, err)
	}
	if rd.Chain() != chain {
		return nil, fmt.Errorf("pipeline: stage %s archive %s holds chain %q, want %q", stage, dir, rd.Chain(), chain)
	}
	if rd.Covers(from, to) && rd.From() == from && rd.To() == to {
		return rd, nil
	}
	// Blocks OUTSIDE the range can never come from an interrupted run of
	// this scenario (a changed scale moves the simulated head), so they
	// always refuse loudly — here, before any endpoint starts.
	if err := rd.CheckWithin(from, to); err != nil {
		return nil, fmt.Errorf("pipeline: stage %s: %w", stage, err)
	}
	return nil, nil
}

// stageCollect resolves one stage's collection source: the archive replay
// reader when the stage archive exactly covers [from, to], otherwise the
// live fetcher built by live() — crawled through an archive.Crawl when
// archiving is on, which tees it into the stage's archive and serves from
// storage whatever an interrupted run already left there. live() runs only
// when live fetches are possible (a full replay skips serving and probing
// entirely) and returns its own teardown; the caller must defer the
// returned cleanup and pass the returned sink to crawlInto, which
// finalizes it.
func (o Options) stageCollect(stage, chain string, from, to int64, ccfg *collect.CrawlConfig, live func() (collect.BlockFetcher, func(), error)) (collect.BlockFetcher, *archive.Crawl, func(), error) {
	noop := func() {}
	rd, err := o.replayReader(stage, chain, from, to)
	if err != nil {
		return nil, nil, noop, err
	}
	if rd != nil {
		// The archive holds these payloads deflated already, and Figure 2
		// reads its footprint (crawlInto): a no-op tee keeps core.IngestCrawl
		// from attaching its sizer and deflating them again.
		ccfg.Tee = func(int64, []byte) error { return nil }
		return rd, nil, noop, nil
	}
	fetcher, cleanup, err := live()
	if cleanup == nil {
		cleanup = noop
	}
	if err != nil {
		return nil, nil, cleanup, err
	}
	dir := o.stageArchiveDir(stage)
	if dir == "" {
		return fetcher, nil, cleanup, nil
	}
	sink, err := archive.OpenCrawl(archive.WriterConfig{Dir: dir, Chain: chain}, fetcher, from, to)
	if err != nil {
		return nil, nil, cleanup, fmt.Errorf("pipeline: stage %s archive: %w", stage, err)
	}
	ccfg.Tee = sink.Tee
	return sink, sink, cleanup, nil
}
