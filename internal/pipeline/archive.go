package pipeline

import (
	"context"
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
//   - no ArchiveDir, or no manifest yet: (nil, false, nil) — crawl live.
//   - a manifest covering [from, to] for the right chain: the Reader,
//     partial false.
//   - with Options.ResumeArchives, a manifest whose blocks all lie INSIDE
//     [from, to] but don't cover it — a run killed mid-crawl: the Reader,
//     partial true; stageCollect serves archived blocks from it and
//     crawls only the rest live, extending the archive to full coverage.
//   - anything else — wrong chain, corruption, blocks outside the range
//     (a scale/seed change since the archive was written): an error,
//     because replaying a subset or appending to an archive written under
//     different scenario parameters would silently skew every figure.
func (o Options) replayReader(stage, chain string, from, to int64) (rd *archive.Reader, partial bool, err error) {
	dir := o.stageArchiveDir(stage)
	if dir == "" {
		return nil, false, nil
	}
	rd, err = archive.OpenWith(dir, archive.OpenOptions{})
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("pipeline: stage %s archive: %w", stage, err)
	}
	if rd.Chain() != chain {
		return nil, false, fmt.Errorf("pipeline: stage %s archive %s holds chain %q, want %q", stage, dir, rd.Chain(), chain)
	}
	if rd.From() == from && rd.To() == to && rd.Covers(from, to) {
		return rd, false, nil
	}
	// Incomplete coverage whose every block still belongs to the stage's
	// range is exactly what a crash mid-crawl leaves behind — resumable
	// when the operator opted in. Blocks OUTSIDE the range can never come
	// from this scenario (a changed scale moves the simulated head), so
	// they always refuse loudly.
	if o.ResumeArchives && rd.From() >= from && rd.To() <= to {
		return rd, true, nil
	}
	return nil, false, fmt.Errorf("pipeline: stage %s archive %s covers [%d, %d] (%d blocks) but the stage needs exactly [%d, %d] — delete the archive directory to recrawl",
		stage, dir, rd.From(), rd.To(), rd.Blocks(), from, to)
}

// archiveWriter opens the write-through archive for a live stage crawl
// (nil when archiving is off). It is only called when replayReader
// returned neither a reader nor an error, i.e. on a fresh archive
// directory.
func (o Options) archiveWriter(stage, chain string) (*archive.Writer, error) {
	dir := o.stageArchiveDir(stage)
	if dir == "" {
		return nil, nil
	}
	w, err := archive.NewWriter(archive.WriterConfig{Dir: dir, Chain: chain})
	if err != nil {
		return nil, fmt.Errorf("pipeline: stage %s archive: %w", stage, err)
	}
	return w, nil
}

// finishArchive closes the write-through archive after a stage crawl,
// joining a finalization failure with the crawl's own error so neither is
// lost — a stage whose crawl failed AND whose archive could not finalize
// must report both (the unfinalized archive is why the next run will
// demand a recrawl).
func finishArchive(w *archive.Writer, crawlErr error) error {
	if w == nil {
		return crawlErr
	}
	if err := w.Close(); err != nil {
		return errors.Join(crawlErr, fmt.Errorf("pipeline: finalizing archive: %w", err))
	}
	return crawlErr
}

// stageCollect resolves one stage's collection source: the archive replay
// reader when the stage archive exactly covers [from, to], otherwise the
// live fetcher built by live() — teed into a fresh write-through archive
// when archiving is on, or composed with a partial archive (resume) so
// only the missing blocks are fetched live. live() runs only when live
// fetches are possible (a full replay skips serving and probing entirely)
// and returns its own teardown; the caller must defer the returned
// cleanup and pass the returned sink to crawlInto, which finalizes it.
func (o Options) stageCollect(stage, chain string, from, to int64, ccfg *collect.CrawlConfig, live func() (collect.BlockFetcher, func(), error)) (collect.BlockFetcher, *archive.Writer, func(), error) {
	noop := func() {}
	rd, partial, err := o.replayReader(stage, chain, from, to)
	if err != nil {
		return nil, nil, noop, err
	}
	if rd != nil && !partial {
		return rd, nil, noop, nil
	}
	fetcher, cleanup, err := live()
	if cleanup == nil {
		cleanup = noop
	}
	if err != nil {
		return nil, nil, cleanup, err
	}
	sink, err := o.archiveWriter(stage, chain)
	if err != nil {
		return nil, nil, cleanup, err
	}
	if rd != nil {
		// Crash recovery: archived blocks replay from storage, the rest
		// fetch live and are teed by the composite itself — never through
		// ccfg.Tee, which would re-archive the replayed blocks too and
		// duplicate them in the manifest.
		return &resumeFetcher{rd: rd, live: fetcher, sink: sink}, sink, cleanup, nil
	}
	if sink != nil {
		ccfg.Tee = sink.Append
	}
	return fetcher, sink, cleanup, nil
}

// resumeFetcher extends an interrupted stage's archive: blocks the
// partial archive holds are served from it (zero network calls), every
// other block is fetched live and appended to the archive, so one
// resumed run leaves full coverage behind and folds every block —
// archived or live — into the same aggregate exactly once.
type resumeFetcher struct {
	rd   *archive.Reader
	live collect.BlockFetcher
	sink *archive.Writer
}

func (f *resumeFetcher) Head(ctx context.Context) (int64, error) { return f.live.Head(ctx) }

func (f *resumeFetcher) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	if f.rd.Covers(num, num) {
		return f.rd.FetchBlock(ctx, num)
	}
	raw, err := f.live.FetchBlock(ctx, num)
	if err != nil {
		return nil, err
	}
	if f.sink != nil {
		if err := f.sink.Append(num, raw); err != nil {
			return nil, err
		}
	}
	return raw, nil
}

// OwnsRaw holds only when both sources guarantee caller-owned buffers.
func (f *resumeFetcher) OwnsRaw() bool {
	rr, ok := f.live.(interface{ OwnsRaw() bool })
	return ok && rr.OwnsRaw() && f.rd.OwnsRaw()
}
