// Command crawl collects block history from a chain endpoint (such as one
// served by cmd/chainsim) in reverse chronological order, reporting the
// dataset characterization the paper's Figure 2 tabulates: block count,
// transaction count and gzip-compressed size.
//
// Blocks flow through the bounded stream API (collect.Stream) into a
// decode/ingest pool (core.IngestStream), so fetching and measurement are
// decoupled the way the paper's long-running crawl machines were.
//
// With -archive the crawl is durable and resumable: every raw block is
// teed into a segmented archive (see internal/archive) while it is
// ingested, and cmd/report -replay can later regenerate the figures from
// that location with zero network calls. The archive is also the crawl's
// checkpoint: rerun the same command after a SIGINT, a SIGKILL or a crash
// and every block the location already holds is served from it — never
// refetched — while only the rest is fetched and appended, so the rerun
// prints the complete figures (see archive.Crawl). A SIGKILL costs at most
// the segment that was open. The location is a blob store: a plain
// directory path, file://PATH, mem://NAME or s3://BUCKET/PREFIX?endpoint=URL
// (see internal/blobstore). A completed crawl prints a
// deterministic "figures" section that a replay over the same archive
// reproduces byte-for-byte — on any backend — which the CI archive job
// diffs.
//
// A crawl is one process over one range: the oracle that the figures of
// a distributed crawl (cmd/coordinate, whose stores cmd/merge joins) are
// diffed against.
//
// Usage:
//
//	crawl -chain eos   -endpoint http://127.0.0.1:PORT [-archive STORE]
//	crawl -chain tezos -endpoint http://127.0.0.1:PORT [-archive STORE]
//	crawl -chain xrp   -endpoint ws://127.0.0.1:PORT   [-archive STORE]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/chain"
	"repro/internal/cli"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/prof"
)

type crawlOpts struct {
	cli.ArchiveFlags
	chain    string
	endpoint string
	workers  int
	ingest   int
	buffer   int
}

func main() {
	var o crawlOpts
	flag.StringVar(&o.chain, "chain", "", "eos, tezos or xrp")
	flag.StringVar(&o.endpoint, "endpoint", "", "endpoint URL")
	o.ArchiveFlags.Register(flag.CommandLine, cli.ModeCrawl)
	flag.IntVar(&o.workers, "workers", 4, "concurrent fetchers (xrp uses 1)")
	flag.IntVar(&o.ingest, "ingest", 2, "decode/ingest workers")
	flag.IntVar(&o.buffer, "buffer", 64, "stream buffer: max fetched-but-unprocessed blocks")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof evidence for perf work)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if o.chain == "" || o.endpoint == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := o.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(2)
	}

	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(1)
	}

	// SIGINT/SIGTERM cancels the crawl context; the stream drains, the
	// archive (if requested) is finalized and the partial summary prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = run(ctx, o, os.Stdout)
	// A profile-write failure surfaces even when the crawl itself failed:
	// the failing run is exactly the one whose profile evidence matters.
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, "crawl:", perr)
		if err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(1)
	}
}

// run executes one crawl. It is the whole command behind flag parsing and
// signal wiring so tests can drive interruption and resume deterministically.
func run(ctx context.Context, o crawlOpts, out io.Writer) error {
	kit, err := core.NewStatsKit(o.chain, chain.ObservationStart, 6*time.Hour)
	if err != nil {
		return fmt.Errorf("unknown chain %q", o.chain)
	}
	fetcher, closeFetcher, maxWorkers, err := collect.Dial(o.chain, o.endpoint)
	if err != nil {
		return err
	}
	defer closeFetcher()
	if maxWorkers > 0 {
		o.workers = maxWorkers
	}

	cfg := collect.CrawlConfig{
		From: o.From, To: o.To,
		Workers: o.workers, Buffer: o.buffer,
	}
	var sink *archive.Crawl
	if o.Archive != "" {
		sink, err = archive.OpenCrawl(archive.WriterConfig{Dir: o.Archive, Chain: o.chain}, fetcher)
		if err != nil {
			return err
		}
		fetcher, cfg.Tee = sink, sink.Tee
	}

	res, _, err := core.IngestCrawl(ctx, fetcher, cfg, kit.Decoder, core.IngestConfig{Workers: o.ingest})
	// The stream is fully drained, so no Append can still be in flight;
	// finalize the archive before reporting anything. Interrupted and
	// failed crawls finalize too — everything teed so far is intact and a
	// rerun with the same -archive resumes from it.
	var closeErr error
	if sink != nil {
		closeErr = sink.Close()
	}
	fmt.Fprintf(out, "chain:       %s\n", o.chain)
	fmt.Fprintf(out, "blocks:      %d (failed %d, retries %d)\n", res.Blocks, res.Failed, res.Retries)
	fmt.Fprintf(out, "txs/ops:     %d\n", kit.Txs())
	fmt.Fprintf(out, "raw bytes:   %d\n", res.RawBytes)
	if res.RawBytes > 0 {
		// An archived crawl deflates each payload once, in the archive, so
		// its footprint is what the store now holds; a plain crawl sizes
		// the stream instead.
		gz := res.GzipBytes
		if sink != nil {
			gz = sink.CompressedBytes()
		}
		fmt.Fprintf(out, "gzip bytes:  %d (%.1f%% of raw)\n", gz, 100*float64(gz)/float64(res.RawBytes))
	}
	if secs := res.Elapsed.Seconds(); secs > 0 {
		fmt.Fprintf(out, "elapsed:     %v (%.0f blocks/s)\n", res.Elapsed, float64(res.Blocks)/secs)
	}
	if sink != nil {
		fmt.Fprintf(out, "archive:     %s (%d blocks already held, %d teed, %d segments)\n", o.Archive, sink.Held(), sink.Teed(), sink.Segments())
	}
	if closeErr != nil {
		return errors.Join(err, fmt.Errorf("finalizing archive: %w", closeErr))
	}
	if errors.Is(err, context.Canceled) {
		// The archive is the only durable record of a plain crawl: without
		// one an interrupted run leaves nothing to pick up.
		if sink == nil {
			return fmt.Errorf("interrupted with no -archive, so nothing durable was written and a rerun starts over: %w", err)
		}
		fmt.Fprintln(out, "interrupted — rerun with the same -archive to resume")
		return nil
	}
	if err != nil {
		return err
	}
	// The deterministic figures section: derived only from the set of
	// blocks this run ingested, so an offline replay of the same archive
	// (cmd/report -replay) reproduces it byte-for-byte.
	fmt.Fprint(out, kit.Summarize().Render())
	return nil
}
