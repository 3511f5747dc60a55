package archive

import "context"

// Source is the live side of an archived crawl: the two methods of
// collect.BlockFetcher, declared here so this package need not import the
// crawler.
type Source interface {
	Head(ctx context.Context) (int64, error)
	FetchBlock(ctx context.Context, num int64) ([]byte, error)
}

// Crawl is an archived crawl's fetcher and sink in one, and the one way a
// crawl opens an archive location: the archive is the checkpoint. Blocks
// the location already holds are served from storage with zero network
// calls; every other block is fetched from the live source and appended by
// Tee, so a rerun against the same location fetches only what the last
// run did not keep and still hands every block — archived or live — to the
// one stream exactly once. A location that already holds the crawl's whole
// range is a replay: it needs no live source at all. The crawl that
// results is indistinguishable downstream from an uninterrupted one, and
// the location ends up covering the whole range.
//
// Wire it as both ends of a collect.Stream: pass the Crawl as the
// BlockFetcher and its Tee method as CrawlConfig.Tee, then Close it once
// the stream has drained and read the footprint from CompressedBytes.
// Appends therefore run where the stream runs its tee — one stage
// goroutine, never a fetch worker — and, a tee being set,
// core.IngestCrawl's gzip sizer stays off: each payload is deflated once.
type Crawl struct {
	live Source  // nil until Attach: every block then comes from storage
	held *Reader // what the location archived before this run; empty when nothing
	sink *Writer
}

// OpenCrawl opens cfg.Dir (or cfg.Store) for a crawl of cfg.Chain over
// [from, to] (to 0 = the head), reading the location once: the Writer's
// manifest load is the Reader's, and each covering segment is verified
// once. A location with no manifest starts a fresh archive; one holding
// another chain's archive, a corrupt one, or one holding blocks outside
// the range (Reader.checkWithin) is an error. A crawl whose range Held
// does not cover attaches its live source (Attach) before it starts.
func OpenCrawl(cfg WriterConfig, from, to int64) (*Crawl, error) {
	sink, err := NewWriter(cfg) // refuses another chain's archive
	if err != nil {
		return nil, err
	}
	held := &Reader{url: sink.cfg.Dir} // a fresh location holds nothing
	if sink.saved {
		if held, err = openManifest(sink.store, sink.cfg.Dir, sink.man, OpenOptions{}); err != nil {
			return nil, err
		}
	}
	if err := held.checkWithin(from, to); err != nil {
		return nil, err
	}
	return &Crawl{held: held, sink: sink}, nil
}

// Attach sets the live source of the blocks the location does not hold.
// Call it before the crawl starts.
func (c *Crawl) Attach(live Source) { c.live = live }

// archived reports whether the location held num before this run.
func (c *Crawl) archived(num int64) bool {
	_, ok := c.held.index[num]
	return ok
}

// Head asks the live source: the archive knows how far an earlier run got,
// not where the chain is now. Without one the archive's newest block
// stands in, as on a Reader.
func (c *Crawl) Head(ctx context.Context) (int64, error) {
	if c.live == nil {
		return c.held.Head(ctx)
	}
	return c.live.Head(ctx)
}

// FetchBlock serves num from the archive when it is held there or there is
// no live source, and from the live source otherwise. It is safe for
// concurrent use when the live source is.
func (c *Crawl) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	if c.live == nil || c.archived(num) {
		return c.held.FetchBlock(ctx, num)
	}
	return c.live.FetchBlock(ctx, num)
}

// OwnsRaw holds when every block comes from the archive, whose Reader
// hands out caller-owned buffers, or the live source guarantees them too
// (the collect.RawRecycler contract).
func (c *Crawl) OwnsRaw() bool {
	if c.live == nil {
		return c.held.OwnsRaw()
	}
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

// Close finalizes the archive: the sealed and the open segment are
// published and the manifest rewritten; a crawl that teed nothing into an existing archive
// writes nothing. Call it after the stream has drained, on success,
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
// run's segments join the total as they are published, the last at Close.
func (c *Crawl) CompressedBytes() int64 {
	return c.sink.CompressedBytes() + c.held.CompressedBytes()
}
