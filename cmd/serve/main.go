// Command serve is the online stats serving layer: it ingests block
// history continuously — from live chain endpoints (with an optional
// archive tee) or from an archived crawl replayed offline — and answers
// per-chain summary, figure and percentile queries over HTTP/JSON while
// ingestion is still running. It links no simulator: to serve the
// reproduction's own chains, point it at a running cmd/chainsim.
//
// Reads never wait on ingestion: every query answers from an immutable
// snapshot swapped in atomically per merge epoch (see internal/serve), and
// every response carries its epoch and staleness. Once the feeds drain the
// final epoch's /v1/figures is byte-identical to the per-chain summary
// blocks cmd/report -replay prints for the same blocks (not the paper's
// sections after them) — TestEveryPathPrintsThePaper diffs exactly that
// — and the server keeps answering until SIGINT/SIGTERM, which shuts
// it down cleanly like cmd/crawl. It prints nothing on stdout: its progress,
// from the serving record's url on, is log/slog text records on stderr.
//
// Usage:
//
//	serve -addr :8080 -replay STORE [-debug-addr HOST:PORT]
//	serve -addr :8080 -eos URL [-tezos URL] [-xrp URL] [-archive STORE] [-debug-addr HOST:PORT]
//
// STORE is a blob-store location: a plain directory path, file://PATH,
// mem://NAME, or s3://BUCKET/PREFIX?endpoint=URL.
//
// Endpoints: /healthz (liveness), /readyz (readiness — 503 until the
// first snapshot epoch publishes), /v1/status, /v1/chains,
// /v1/summary/{chain}, /v1/figures[/{chain}],
// /v1/percentiles/{chain}?p=50,90,99. net/http/pprof is never on -addr:
// with -debug-addr it answers at /debug/pprof/ on a listener of its own.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/cli"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/serve"
)

type serveOpts struct {
	addr  string
	eos   string
	tezos string
	xrp   string
	cli.ArchiveFlags
	epoch     time.Duration
	workers   int
	debugAddr string

	// ready, when set, is called with the base URL once the listener is
	// accepting — the hook tests use to query mid-ingest.
	ready func(baseURL string)
}

func main() {
	var o serveOpts
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "HTTP listen address")
	flag.StringVar(&o.eos, "eos", "", "EOS endpoint URL to crawl live")
	flag.StringVar(&o.tezos, "tezos", "", "Tezos endpoint URL to crawl live")
	flag.StringVar(&o.xrp, "xrp", "", "XRP WebSocket endpoint URL to crawl live")
	o.ArchiveFlags.Register(flag.CommandLine, cli.ModeServe)
	flag.DurationVar(&o.epoch, "epoch", 200*time.Millisecond, "snapshot publish interval")
	flag.IntVar(&o.workers, "workers", 4, "concurrent fetchers per live feed (xrp uses 1)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof at /debug/pprof/ on this host:port, apart from -addr (empty = no listener)")
	flag.Parse()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if err := o.validate(); err != nil {
		log.Error("bad flags", "err", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, o, log); err != nil {
		log.Error("serve failed", "err", err)
		os.Exit(1)
	}
}

// live reports whether any live endpoint was passed.
func (o *serveOpts) live() bool { return o.eos != "" || o.tezos != "" || o.xrp != "" }

// validate refuses a flag set before anything listens: bad store locations
// and ranges, and a replay mixed with live endpoints — the two are feed
// modes, and one of them would be silently ignored.
func (o *serveOpts) validate() error {
	if err := o.ArchiveFlags.Validate(); err != nil {
		return err
	}
	if o.Replaying() && o.live() {
		return errors.New("-replay serves archived crawls offline and -eos/-tezos/-xrp crawl live endpoints: pass one or the other")
	}
	return nil
}

// run is the whole command behind flag parsing and signal wiring, testable
// with a cancellable context and a logger. Lifecycle: listen → start the
// publish loop → run every feed to drain → final epoch → keep serving the
// drained figures until ctx is cancelled → graceful shutdown.
func run(ctx context.Context, o serveOpts, log *slog.Logger) error {
	stopDebug, err := cli.ServeDebug(o.debugAddr, nil, log)
	if err != nil {
		return err
	}
	defer stopDebug()
	pub := serve.NewPublisher()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	srv := cli.BoundedServer(serve.NewHandler(pub))
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	baseURL := "http://" + ln.Addr().String()
	log.Info("serving", "url", baseURL)
	if o.ready != nil {
		o.ready(baseURL)
	}

	// The publish loop outlives feed cancellation on purpose: it stops —
	// with one final epoch — only after every feed has fully drained, so
	// the last snapshot is guaranteed complete.
	tickCtx, tickStop := context.WithCancel(context.Background())
	tickDone := make(chan struct{})
	go func() {
		pub.Run(tickCtx, o.epoch)
		close(tickDone)
	}()

	feedErr := runFeeds(ctx, pub, o, log)

	tickStop()
	<-tickDone

	snap := pub.Current()
	for _, name := range snap.Names() {
		st := snap.Chains[name]
		log.Info("drained", "chain", name, "blocks", st.Summary.Blocks, "txs", st.Summary.Transactions, "epoch", snap.Epoch)
	}

	interrupted := errors.Is(feedErr, context.Canceled)
	if feedErr != nil && !interrupted {
		srv.Close()
		return feedErr
	}
	if interrupted {
		log.Warn("interrupted mid-ingest; serving partial figures until shutdown")
	}

	// Feeds are done; keep answering queries over the final snapshot until
	// the caller signals shutdown.
	<-ctx.Done()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-serveDone; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Info("shutdown")
	return nil
}

// runFeeds drives every configured ingest feed to completion and returns
// their joined errors. Exactly one feed mode applies per invocation.
func runFeeds(ctx context.Context, pub *serve.Publisher, o serveOpts, log *slog.Logger) error {
	switch {
	case o.Replaying():
		return replayFeeds(ctx, pub, o, log)
	case o.live():
		type feed struct{ chain, endpoint string }
		var feeds []feed
		for _, f := range []feed{{"eos", o.eos}, {"tezos", o.tezos}, {"xrp", o.xrp}} {
			if f.endpoint != "" {
				feeds = append(feeds, f)
			}
		}
		errs := make([]error, len(feeds))
		var wg sync.WaitGroup
		for i, f := range feeds {
			wg.Add(1)
			go func(i int, f feed) {
				defer wg.Done()
				errs[i] = liveFeed(ctx, pub, o, f.chain, f.endpoint, log)
			}(i, f)
		}
		wg.Wait()
		return errors.Join(errs...)
	default:
		return errors.New("nothing to serve: pass -replay DIR or at least one of -eos/-tezos/-xrp")
	}
}

// replayFeeds serves archived crawls: every archive under o.Replay replays
// into its own registered feed, all concurrently. Every archive is opened
// (and so verified) and checked for holes before the first feed starts, so
// a corrupt or incomplete one fails the command while nothing is folding
// into the publisher yet.
func replayFeeds(ctx context.Context, pub *serve.Publisher, o serveOpts, log *slog.Logger) error {
	dirs, err := archive.Discover(o.Replay)
	if err != nil {
		return err
	}
	type feed struct {
		dir string
		rd  *archive.Reader
	}
	var feeds []feed
	for _, dir := range dirs {
		rd, err := archive.OpenWith(dir, archive.OpenOptions{})
		if err != nil {
			return err
		}
		if rd.Blocks() == 0 {
			log.Info("skipping empty archive", "dir", dir)
			continue
		}
		if err := rd.CheckComplete(); err != nil {
			return err
		}
		feeds = append(feeds, feed{dir, rd})
	}
	errs := make([]error, len(feeds))
	var wg sync.WaitGroup
	for i, f := range feeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Two decode workers per archive, as a live feed gets by default.
			n, err := pub.FeedArchive(ctx, f.rd, serve.FeedConfig{Ingest: core.IngestConfig{Workers: 2}})
			if err != nil {
				errs[i] = fmt.Errorf("replaying %s: %w", f.dir, err)
				return
			}
			log.Info("replayed", "chain", f.rd.Chain(), "blocks", n, "dir", f.dir)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// liveFeed crawls one chain endpoint into the publisher, optionally through
// an archive: raw blocks are teed into it for later offline replay, and
// blocks an interrupted feed already left there are served from it.
func liveFeed(ctx context.Context, pub *serve.Publisher, o serveOpts, chainName, endpoint string, log *slog.Logger) error {
	fetcher, closeFetcher, maxWorkers, err := collect.Dial(chainName, endpoint)
	if err != nil {
		return err
	}
	defer closeFetcher()
	ccfg := collect.CrawlConfig{
		From: o.From, To: o.To, Workers: o.workers,
		MaxRetries: 8, Backoff: 5 * time.Millisecond,
	}
	if maxWorkers > 0 {
		ccfg.Workers = maxWorkers
	}
	var sink *archive.Crawl
	if o.Archive != "" {
		sink, err = archive.OpenCrawl(archive.WriterConfig{
			Dir: blobstore.Join(o.Archive, chainName), Chain: chainName,
		}, o.From, o.To)
		if err != nil {
			return err
		}
		sink.Attach(fetcher)
		fetcher, ccfg.Tee = sink, sink.Tee
	}

	res, err := pub.Feed(ctx, fetcher, ccfg, serve.FeedConfig{Chain: chainName})
	if sink != nil {
		if cerr := sink.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("finalizing %s archive: %w", chainName, cerr))
		}
	}
	log.Info("ingested", "chain", chainName, "blocks", res.Blocks, "failed", res.Failed, "retries", res.Retries)
	return err
}
