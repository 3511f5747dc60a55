package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/rpcserve"
	"repro/internal/workload"
)

// Constants of the run, echoed in the report. They are not flags: a
// throughput figure means something only at a stated load on a stated
// machine, so the load is part of the benchmark's definition.
const (
	maxProcs        = 2 // GOMAXPROCS, pinned
	fetchWorkers    = 2 // crawl fetch goroutines per chain (XRP's WebSocket takes 1)
	ingestWorkers   = 2 // decode/aggregate goroutines
	serveIngest     = 1 // ingest goroutines per feed on serve, beside the query client
	coordShards     = 3
	checkpointEvery = 16 // blocks per worker checkpoint on coordinate
	publishEvery    = 50 * time.Millisecond
	openRatePerSec  = 500 // open-loop request rate on serve
	setupRepeats    = 3   // set-ups per run; setup_s is their median
	minRounds       = 20  // rounds a run measures at least, whatever -seconds says
	// setupParallel is set-up's parallel share (workloadDef.parallel): the
	// simulators run on one CPU, the crawl and the archive verify on two.
	setupParallel = 0.25
	// segmentBytes rotates archive segments at a quarter of the writer's
	// 8 MiB default, as the dataset is a quarter of the size it was first
	// sized at: EOS still spans 3-4 segments and XRP 2, so replay's
	// segment-granular fan-out has something to fan out over.
	segmentBytes = 2 << 20
)

// scales size a run: the three scenarios' time-dilation divisors (larger =
// fewer blocks) and query's closed-loop burst in requests per round.
// benchScales is the benchmark; tests use tinyScales.
type scales struct {
	EOS, Tezos, XRP int64
	Burst           int
}

var (
	benchScales = scales{EOS: 80_000, Tezos: 400, XRP: 20_000, Burst: 2000}
	tinyScales  = scales{EOS: 1_000_000, Tezos: 4_000, XRP: 250_000, Burst: 100}
)

// chainData is one simulated chain as the workloads see it: a loopback
// endpoint to crawl, and the set-up crawl's archive to replay.
type chainData struct {
	name    string
	head    int64 // blocks 1..head
	txs     int64
	raw     int64 // raw payload bytes
	workers int   // fetch workers this chain's protocol allows
	// client crawls the loopback endpoint; handler is the endpoint's
	// rpcserve handler, for direct unit-cost calls.
	client  collect.BlockFetcher
	handler http.Handler
	store   blobstore.Store // the set-up archive
	reader  *archive.Reader
	figures string // the oracle: this chain's rendered figures section
}

// dataset is everything set-up builds from -seed: three simulated chains
// served through the real rpcserve handlers on loopback, crawled once
// into three mem:// archives, with the rendered figures kept as the
// oracle every later round is compared against byte for byte.
type dataset struct {
	chains  []*chainData // eos, tezos, xrp — also sorted order, as serve renders
	figures string       // all chains' figures, in chain order
	blocks  int64
	txs     int64
	raw     int64
	// scratch holds what rounds write (crawl archives, coordinate
	// shards); it is wiped after every round.
	scratch *blobstore.Memory
	closers []func()
}

func newKit(name string) core.StatsKit {
	kit, err := core.NewStatsKit(name, chain.ObservationStart, 6*time.Hour)
	if err != nil {
		panic(err) // only the three known chain names reach here
	}
	return kit
}

// serveLoopback starts h on an ephemeral loopback port and returns its
// address and a function that stops it.
func serveLoopback(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}

// sub returns the view of a memory store under prefix/ (a chain's archive
// or shard namespace).
func sub(st *blobstore.Memory, prefix string) blobstore.Store {
	v, err := blobstore.Resolve(st.URL() + "/" + prefix)
	if err != nil {
		panic(err) // a mem:// URL this file built
	}
	return v
}

// wipe deletes every object in a store, so the process-wide mem://
// registry holds no payloads once a store is done with.
func wipe(st blobstore.Store) {
	ctx := context.Background()
	keys, _ := st.List(ctx, "")
	for _, k := range keys {
		_ = st.Delete(ctx, k) // memory deletes cannot fail
	}
}

// setUp builds the dataset for a seed.
func setUp(ctx context.Context, seed int64, sc scales) (_ *dataset, err error) {
	ds := &dataset{scratch: blobstore.NewMemory()}
	defer func() {
		if err != nil {
			ds.close()
		}
	}()
	seeds := derive(seed, 1)
	scenarioSeed := func() int64 { return int64(seeds.next() >> 1) }

	eosSc, err := workload.BuildEOS(workload.EOSOptions{Scale: sc.EOS, Seed: scenarioSeed()})
	if err != nil {
		return nil, err
	}
	eosSc.Run()
	tezosSc, err := workload.BuildTezos(workload.TezosOptions{Scale: sc.Tezos, Seed: scenarioSeed()})
	if err != nil {
		return nil, err
	}
	if _, err := tezosSc.Run(); err != nil {
		return nil, err
	}
	xrpSc, err := workload.BuildXRP(workload.XRPOptions{Scale: sc.XRP, Seed: scenarioSeed()})
	if err != nil {
		return nil, err
	}
	xrpSc.Run()

	archives := blobstore.NewMemory()
	ds.closers = append(ds.closers, func() { wipe(archives) })
	endpoint := func(name string, head int64, h http.Handler, scheme string, workers int,
		dial func(url string) (collect.BlockFetcher, func())) error {
		addr, stop, err := serveLoopback(h)
		if err != nil {
			return err
		}
		ds.closers = append(ds.closers, stop)
		client, closeClient := dial(scheme + "://" + addr)
		ds.closers = append(ds.closers, closeClient)
		ds.chains = append(ds.chains, &chainData{
			name: name, head: head, workers: workers,
			client: client, handler: h, store: sub(archives, name),
		})
		return nil
	}
	err = endpoint("eos", int64(eosSc.Chain.HeadNum()), rpcserve.NewEOSServer(eosSc.Chain), "http", fetchWorkers,
		func(url string) (collect.BlockFetcher, func()) { return collect.NewEOSClient(url), func() {} })
	if err != nil {
		return nil, err
	}
	err = endpoint("tezos", tezosSc.Chain.HeadLevel(), rpcserve.NewTezosServer(tezosSc.Chain), "http", fetchWorkers,
		func(url string) (collect.BlockFetcher, func()) { return collect.NewTezosClient(url), func() {} })
	if err != nil {
		return nil, err
	}
	// The WebSocket protocol is sequential per connection: one worker.
	err = endpoint("xrp", xrpSc.State.HeadIndex(), rpcserve.NewXRPServer(xrpSc.State), "ws", 1,
		func(url string) (collect.BlockFetcher, func()) {
			c := collect.NewXRPClient(url)
			return c, func() { _ = c.Close() }
		})
	if err != nil {
		return nil, err
	}
	// The HTTP clients share http.DefaultTransport; drop its idle
	// connections to this dataset's servers when they stop.
	ds.closers = append(ds.closers, http.DefaultClient.CloseIdleConnections)

	// Crawl each chain once over its socket into its archive, keep the
	// figures as the oracle, then open the archive with a full verify.
	var figs strings.Builder
	for _, c := range ds.chains {
		kit := newKit(c.name)
		res, err := crawlChain(ctx, c, c.store, kit, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up crawl of %s: %w", c.name, err)
		}
		if res.Blocks != c.head || res.Failed != 0 {
			return nil, fmt.Errorf("set-up crawl of %s delivered %d of %d blocks (%d failed)", c.name, res.Blocks, c.head, res.Failed)
		}
		c.txs, c.raw = kit.Txs(), res.RawBytes
		c.figures = kit.Summarize().Render()
		figs.WriteString(c.figures)
		if c.reader, err = openArchive(c.store); err != nil {
			return nil, fmt.Errorf("opening the %s set-up archive: %w", c.name, err)
		}
		if c.reader.Blocks() != c.head || !c.reader.Covers(1, c.head) {
			return nil, fmt.Errorf("%s set-up archive holds %d of %d blocks", c.name, c.reader.Blocks(), c.head)
		}
		ds.blocks += c.head
		ds.txs += c.txs
		ds.raw += c.raw
	}
	ds.figures = figs.String()
	return ds, nil
}

// crawlChain is one chain's live collection path, as cmd/crawl -archive
// wires it: core.IngestCrawl over the chain's socket client, teeing every
// raw block into an archive writer on st, then finalizing the archive.
func crawlChain(ctx context.Context, c *chainData, st blobstore.Store, kit core.StatsKit, t *tracer, parent *scope) (collect.CrawlResult, error) {
	appendScope := newScope(-1)
	st = t.store(st, appendScope)
	w, err := archive.NewWriter(archive.WriterConfig{Dir: st.URL(), Store: st, Chain: c.name, SegmentBytes: segmentBytes})
	if err != nil {
		return collect.CrawlResult{}, err
	}
	dec, err := t.decoder(kit.Decoder, c.name, parent)
	if err != nil {
		return collect.CrawlResult{}, err
	}
	res, _, err := core.IngestCrawl(ctx, t.fetcher(c.client, parent, true),
		collect.CrawlConfig{From: 1, To: c.head, Workers: c.workers, Tee: t.tee(w.Append, parent, appendScope)},
		dec, core.IngestConfig{Workers: ingestWorkers})
	if parent != nil {
		appendScope.id.Store(parent.id.Load()) // the final segment's put belongs to the phase
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return res, err
}

func openArchive(st blobstore.Store) (*archive.Reader, error) {
	return archive.OpenWith(st.URL(), archive.OpenOptions{Store: st, Workers: ingestWorkers})
}

// close stops the dataset's servers and clients and frees its stores.
func (ds *dataset) close() {
	for i := len(ds.closers) - 1; i >= 0; i-- {
		ds.closers[i]()
	}
	ds.closers = nil
	wipe(ds.scratch)
}
