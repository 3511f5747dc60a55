package archive

import (
	"context"
	"errors"
	"io/fs"
)

// Source is the live side of an archived crawl: the two methods of
// collect.BlockFetcher, declared here so this package need not import the
// crawler.
type Source interface {
	Head(ctx context.Context) (int64, error)
	FetchBlock(ctx context.Context, num int64) ([]byte, error)
}

// Crawl is an archived crawl's fetcher and sink in one, and the one way a
// crawl resumes: the archive is the checkpoint. Blocks the location already
// holds are served from storage with zero network calls; every other block
// is fetched from the live source and appended by Tee, so a rerun against
// the same location fetches only what the last run did not keep and still
// hands every block — archived or live — to the one stream exactly once.
// The crawl that results is indistinguishable downstream from an
// uninterrupted one, and the location ends up covering the whole range.
//
// Wire it as both ends of a collect.Stream: pass the Crawl as the
// BlockFetcher and its Tee method as CrawlConfig.Tee, then Close it once
// the stream has drained. Appends therefore run where the stream runs its
// tee — one stage goroutine, never a fetch worker — and, a tee being set,
// the stream's own gzip sizer stays off: each payload is deflated once.
type Crawl struct {
	live Source
	held *Reader // what the location archived before this run; empty when nothing
	sink *Writer
}

// OpenCrawl opens cfg.Dir (or cfg.Store) for a crawl of cfg.Chain from live.
// A location with no manifest starts a fresh archive; one holding another
// chain's archive, or a corrupt one, is an error.
func OpenCrawl(cfg WriterConfig, live Source) (*Crawl, error) {
	sink, err := NewWriter(cfg) // refuses another chain's archive
	if err != nil {
		return nil, err
	}
	held, err := OpenWith(cfg.Dir, OpenOptions{Store: cfg.Store})
	if errors.Is(err, fs.ErrNotExist) {
		held = &Reader{} // a fresh location holds nothing
	} else if err != nil {
		return nil, err
	}
	return &Crawl{live: live, held: held, sink: sink}, nil
}

// archived reports whether the location held num before this run.
func (c *Crawl) archived(num int64) bool {
	_, ok := c.held.index[num]
	return ok
}

// Head asks the live source: the archive knows how far an earlier run got,
// not where the chain is now.
func (c *Crawl) Head(ctx context.Context) (int64, error) { return c.live.Head(ctx) }

// FetchBlock serves num from the archive when it is held there and from
// the live source otherwise. It is safe for concurrent use when the live
// source is.
func (c *Crawl) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	if c.archived(num) {
		return c.held.FetchBlock(ctx, num)
	}
	return c.live.FetchBlock(ctx, num)
}

// OwnsRaw holds when the live source guarantees caller-owned buffers, as
// the Reader does (the collect.RawRecycler contract).
func (c *Crawl) OwnsRaw() bool {
	rr, ok := c.live.(interface{ OwnsRaw() bool })
	return ok && rr.OwnsRaw()
}

// Tee is the collect.CrawlConfig.Tee hook: it appends a live block to the
// archive and lets a block that came from the archive pass, so a resumed
// crawl never writes a duplicate record.
func (c *Crawl) Tee(num int64, raw []byte) error {
	if c.archived(num) {
		return nil
	}
	return c.sink.Append(num, raw)
}

// Close finalizes the archive: the open segment is published and the
// manifest rewritten. Call it after the stream has drained, on success,
// failure and cancellation alike — whatever was teed stays intact and the
// next run resumes from it.
func (c *Crawl) Close() error { return c.sink.Close() }

// Held counts the distinct blocks the location held before this run.
func (c *Crawl) Held() int64 { return c.held.Blocks() }

// Teed counts the blocks this run appended.
func (c *Crawl) Teed() int64 { return c.sink.Blocks() }

// Segments counts the archive's segments, this run's included.
func (c *Crawl) Segments() int { return c.sink.Segments() }

// CompressedBytes is the archive's on-disk footprint — the summed object
// sizes of every segment, inherited ones included — and so the gzip size
// of the dataset the crawl was over (the paper's Figure 2 column). This
// run's open segment joins the total when Close publishes it.
func (c *Crawl) CompressedBytes() int64 {
	total := c.sink.CompressedBytes()
	for _, seg := range c.held.man.Segments {
		total += seg.CompBytes
	}
	return total
}
