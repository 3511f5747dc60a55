// Command crawl collects block history from a chain endpoint (such as one
// served by cmd/chainsim) in reverse chronological order, reporting the
// dataset characterization the paper's Figure 2 tabulates: block count,
// transaction count and gzip-compressed size.
//
// Blocks flow through the bounded stream API (collect.Stream) into a
// decode/ingest pool (core.IngestCrawl), so fetching and measurement are
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
// (see internal/blobstore). A completed crawl prints its deterministic
// figures — the chain's summary, then the paper's shard-derived sections —
// which a replay over the same archive reproduces byte-for-byte, on any
// backend, as TestEveryPathPrintsThePaper diffs. Errors are log/slog text
// records on stderr.
//
// A rerun resumes only into an archive whose blocks all lie inside its
// range: one holding blocks below -from, or above a concrete -to, is
// refused, since the rerun's figures would then differ from the archive's.
//
// A crawl is one process over one range: the oracle that the figures of
// a distributed crawl (cmd/coordinate, whose stores cmd/merge joins) are
// diffed against. With -debug-addr it serves net/http/pprof at
// /debug/pprof/ while it runs, at the url of its msg="serving debug"
// record.
//
// Usage:
//
//	crawl -chain eos   -endpoint http://127.0.0.1:PORT [-archive STORE] [-debug-addr HOST:PORT]
//	crawl -chain tezos -endpoint http://127.0.0.1:PORT [-archive STORE] [-debug-addr HOST:PORT]
//	crawl -chain xrp   -endpoint ws://127.0.0.1:PORT   [-archive STORE] [-debug-addr HOST:PORT]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/chain"
	"repro/internal/cli"
	"repro/internal/collect"
	"repro/internal/core"
)

type crawlOpts struct {
	cli.ArchiveFlags
	chain     string
	endpoint  string
	workers   int
	debugAddr string
}

func main() {
	var o crawlOpts
	flag.StringVar(&o.chain, "chain", "", "eos, tezos or xrp")
	flag.StringVar(&o.endpoint, "endpoint", "", "endpoint URL")
	o.ArchiveFlags.Register(flag.CommandLine, cli.ModeCrawl)
	flag.IntVar(&o.workers, "workers", 4, "concurrent fetchers (xrp uses 1)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof at /debug/pprof/ on this host:port while crawling (empty = no listener)")
	flag.Parse()
	if o.chain == "" || o.endpoint == "" {
		flag.Usage()
		os.Exit(2)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if err := o.Validate(); err != nil {
		log.Error("bad flags", "err", err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancels the crawl context; the stream drains, the
	// archive (if requested) is finalized and the partial summary prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, o, os.Stdout, log); err != nil {
		log.Error("crawl failed", "err", err)
		os.Exit(1)
	}
}

// run executes one crawl. It is the whole command behind flag parsing and
// signal wiring so tests can drive interruption and resume deterministically.
func run(ctx context.Context, o crawlOpts, out io.Writer, log *slog.Logger) error {
	stopDebug, err := cli.ServeDebug(o.debugAddr, nil, log)
	if err != nil {
		return err
	}
	defer stopDebug()
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

	cfg := collect.CrawlConfig{From: o.From, To: o.To, Workers: o.workers}
	var sink *archive.Crawl
	if o.Archive != "" {
		sink, err = archive.OpenCrawl(archive.WriterConfig{Dir: o.Archive, Chain: o.chain}, o.From, o.To)
		if err != nil {
			return err
		}
		sink.Attach(fetcher)
		fetcher, cfg.Tee = sink, sink.Tee
	}

	res, _, err := core.IngestCrawl(ctx, fetcher, cfg, kit.Decoder, core.IngestConfig{})
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
		// its footprint is what the store now holds; a plain crawl's is
		// what core.IngestCrawl's sizer counted.
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
	// The deterministic figures: derived only from the set of blocks this
	// run ingested, so an offline replay of the same archive (cmd/report
	// -replay) reproduces them byte-for-byte.
	fmt.Fprint(out, core.Figures(kit.State()))
	return nil
}
