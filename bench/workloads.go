package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/serve"
)

// workloadDef is one named workload: why it exists, what one operation of
// it is, and how to run one round (one complete pass over the dataset).
type workloadDef struct {
	name string
	why  string
	op   string // the unit ops_per_s and allocs_per_op count
	// parallel is the share of a round's time at reference speed during
	// which the workload keeps both CPUs busy; for the rest it keeps one.
	// The estimator weighs the kernel's two readings by it
	// (kernelReading.slowdown). Fitted at landing from rounds measured
	// beside a one-CPU busy loop and without; README.md has the method.
	parallel float64
	// prepare builds per-run state beyond the dataset (query's drained
	// server); it is part of set-up and of setup_s.
	prepare func(ctx context.Context, env *runEnv, t *tracer) error
	round   func(ctx context.Context, env *runEnv, i int, t *tracer) (roundResult, error)
}

// The why strings are BENCHMARK.json's, checked by a test.
var workloads = []workloadDef{
	{
		name: "crawl", op: "block", parallel: 0.20,
		why:   "The paper's live collection path: socket fetch from rpcserve, tee into a fresh archive, decode, aggregate, render. Only workload with sockets on ingest and archive writes; fetch gains show only here.",
		round: crawlRound,
	},
	{
		name: "replay", op: "block", parallel: 0.55,
		why:   "Archive open with full verify, 2-worker in-place decode and aggregation, render. No sockets and no simulator, so decode and aggregation gains show largest here and fetch-path gains must show nothing.",
		round: replayRound,
	},
	{
		name: "coordinate", op: "block", parallel: 0.30,
		why:   "3-shard coord.Run per chain with in-process checkpointing workers over the archive reader. Only workload running leases, run-state checkpoints, shard encode/decode, blob puts and the fenced merge.",
		round: coordinateRound,
	},
	{
		name: "serve", op: "block", parallel: 0.05,
		why:   "Ingest into a live Publisher (merges and snapshot publishes every 50 ms) while an open-loop client queries it at 500 req/s on one connection: ingest throughput while the read side competes for CPU.",
		round: serveRound,
	},
	{
		name: "query", op: "request", parallel: 0.15,
		why:     "Closed loop of seeded status/summary/figures/percentiles requests on one connection against a drained snapshot: the read side alone; handler and selector gains show here, ingest gains must not.",
		round:   queryRound,
		prepare: prepareQuery,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// oracleParallel is the parallel share (workloadDef.parallel) of
// coordinate's in-round single-process pass, fitted the same way.
const oracleParallel = 0.55

// runEnv is what a run's rounds share.
type runEnv struct {
	ds    *dataset
	seed  int64
	burst int // closed-loop requests per query round
	query *queryEnv
}

// meter brackets a round's measured phase.
type meter struct {
	start  time.Time
	before runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.before)
	m.start = time.Now()
	return m
}

func (m *meter) stop(r *roundResult) {
	r.elapsed = time.Since(m.start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.mallocs = after.Mallocs - m.before.Mallocs
	r.allocated = after.TotalAlloc - m.before.TotalAlloc
	r.gcCycles = after.NumGC - m.before.NumGC
}

// verifyIngest tallies a round's correctness: every block of the dataset
// ingested, and the figures byte-identical to the set-up oracle.
func verifyIngest(r *roundResult, ds *dataset, blocks int64, figures string) {
	r.ops = blocks
	r.attempted += ds.blocks + 1
	if blocks < ds.blocks {
		r.failed += ds.blocks - blocks
	}
	if figures != ds.figures {
		r.failed++
	}
}

// render is the figures step every ingest round ends with.
func render(kit core.StatsKit, t *tracer, parent *scope) string {
	id := t.begin("core.render", parent.id.Load(), false)
	s := kit.Summarize().Render()
	t.end(id)
	return s
}

// ---- crawl -------------------------------------------------------------

func crawlRound(ctx context.Context, env *runEnv, _ int, t *tracer) (roundResult, error) {
	ds := env.ds
	defer wipe(ds.scratch)
	var (
		r      roundResult
		figs   strings.Builder
		blocks int64
	)
	m := startMeter()
	rid := t.begin("round", -1, false)
	for _, c := range ds.chains {
		phase := newScope(t.begin("phase.crawl."+c.name, rid, false))
		kit := newKit(c.name)
		res, err := crawlChain(ctx, c, sub(ds.scratch, c.name), kit, t, phase)
		if err != nil {
			return r, fmt.Errorf("crawling %s: %w", c.name, err)
		}
		blocks += res.Blocks
		r.retries += res.Retries
		figs.WriteString(render(kit, t, phase))
		t.end(phase.id.Load())
	}
	t.end(rid)
	m.stop(&r)
	verifyIngest(&r, ds, blocks, figs.String())
	return r, nil
}

// ---- replay ------------------------------------------------------------

func replayRound(ctx context.Context, env *runEnv, _ int, t *tracer) (roundResult, error) {
	ds := env.ds
	var (
		r      roundResult
		figs   strings.Builder
		blocks int64
	)
	m := startMeter()
	rid := t.begin("round", -1, false)
	for _, c := range ds.chains {
		phase := newScope(t.begin("phase.replay."+c.name, rid, false))
		openID := t.begin("archive.open", phase.id.Load(), false)
		storeScope := newScope(openID)
		rd, err := openArchive(t.store(c.store, storeScope))
		t.end(openID)
		storeScope.id.Store(phase.id.Load())
		if err != nil {
			return r, fmt.Errorf("opening %s archive: %w", c.name, err)
		}
		kit := newKit(c.name)
		dec, err := t.decoder(kit.Decoder, c.name, phase)
		if err != nil {
			return r, err
		}
		n, err := core.IngestArchive(ctx, rd, dec, core.IngestConfig{Workers: ingestWorkers})
		if err != nil {
			return r, fmt.Errorf("replaying %s: %w", c.name, err)
		}
		blocks += n
		figs.WriteString(render(kit, t, phase))
		t.end(phase.id.Load())
	}
	t.end(rid)
	m.stop(&r)
	verifyIngest(&r, ds, blocks, figs.String())
	return r, nil
}

// ---- coordinate --------------------------------------------------------

func coordinateRound(ctx context.Context, env *runEnv, _ int, t *tracer) (roundResult, error) {
	ds := env.ds
	defer wipe(ds.scratch)
	var (
		r        roundResult
		figs     strings.Builder
		blocks   int64
		complete = true
	)
	// Both timed passes of a coordinate round start from a just-collected
	// heap (see the oracle below for why).
	runtime.GC()
	m := startMeter()
	rid := t.begin("round", -1, false)
	for _, c := range ds.chains {
		phase := t.begin("phase.coordinate."+c.name, rid, false)
		// Store operations belong to whoever is running: the coordinator
		// (leases, run state, validation, merge) or, inside the Run hook,
		// the worker (checkpoints, the shard put). Parallel is 1, so one
		// scope switched by the hook is exact.
		storeScope := newScope(phase)
		st := t.store(sub(ds.scratch, c.name), storeScope)
		res, err := coord.Run(ctx, coord.Config{
			Chain: c.name, From: 1, To: c.head,
			Shards: coordShards, Parallel: 1, Store: st,
			Run: func(ctx context.Context, task coord.Task) error {
				worker := newScope(t.begin("phase.worker", phase, false))
				storeScope.id.Store(worker.id.Load())
				defer func() {
					storeScope.id.Store(phase)
					t.end(worker.id.Load())
				}()
				kit := newKit(c.name)
				dec, err := t.decoder(kit.Decoder, c.name, worker)
				if err != nil {
					return err
				}
				kit.Decoder = dec
				out, err := coord.RunShardCrawl(ctx, coord.CrawlerConfig{
					Kit: kit, Fetcher: t.fetcher(c.reader, worker, false),
					From: task.From, To: task.To, Store: st,
					CheckpointEvery: checkpointEvery,
					Workers:         fetchWorkers, Ingest: ingestWorkers,
					Fence: task.Fence,
				})
				blocks += out.Blocks
				r.retries += out.Retries
				return err
			},
		})
		if err != nil {
			return r, fmt.Errorf("coordinating %s: %w", c.name, err)
		}
		complete = complete && res.Report.Complete && len(res.Report.Missing) == 0
		rs := t.begin("core.render", phase, false)
		figs.WriteString(res.Merged.Summary().Render())
		t.end(rs)
		t.end(phase)
	}
	t.end(rid)
	m.stop(&r)
	verifyIngest(&r, ds, blocks, figs.String())
	r.attempted++ // the gap report
	if !complete {
		r.failed++
	}

	if t == nil {
		// The single-process oracle over the same reader, timed next to
		// the coordinated pass so coord_overhead is a ratio of two adjacent
		// timings under one kernel reading. It runs outside the measured
		// phase: ops_per_s and allocs_per_op count the coordinated pass
		// alone. A traced round takes none; its ratio would carry the tracer.
		//
		// Left to itself the collector runs about once per round, and a
		// cycle (marking 50 MB of live dataset) stretches whichever pass it
		// lands in by a tenth. Which pass that is settles into a pattern
		// that differs from process to process — measured: rounds with the
		// cycle in the coordinated pass read 1.50, in the oracle 1.30, and
		// the mix moved whole runs by ±4 %. Collecting before each pass
		// keeps cycles out of both (each allocates less than the live heap).
		// This is the one workload that does so; estimator.go says why the
		// others must not.
		runtime.GC()
		started := time.Now()
		var oracle strings.Builder
		for _, c := range ds.chains {
			kit := newKit(c.name)
			_, _, err := core.IngestCrawl(ctx, c.reader,
				collect.CrawlConfig{From: 1, To: c.head, Workers: fetchWorkers},
				kit.Decoder, core.IngestConfig{Workers: ingestWorkers})
			if err != nil {
				return r, fmt.Errorf("oracle crawl of %s: %w", c.name, err)
			}
			oracle.WriteString(kit.Summarize().Render())
		}
		r.oracle = time.Since(started)
		r.attempted++
		if oracle.String() != ds.figures {
			r.failed++
		}
	}
	return r, nil
}

// ---- serve -------------------------------------------------------------

// feedArchive replays one chain's set-up archive into the publisher. The
// untraced path is serve.Publisher.FeedArchive itself. FeedArchive builds
// its decoder internally, so the traced path spells out the same public
// calls FeedArchive makes, with the traced decoder in place. A PR that
// changes FeedArchive (window, merge cadence, ingest defaults) changes this
// copy with it; TestTracedFeedMatchesFeedArchive catches what a publisher
// can show of a divergence.
func feedArchive(ctx context.Context, pub *serve.Publisher, c *chainData, t *tracer, parent *scope) (int64, error) {
	cfg := core.IngestConfig{Workers: serveIngest}
	if t == nil {
		return pub.FeedArchive(ctx, c.reader, serve.FeedConfig{Ingest: cfg})
	}
	kit := newKit(c.name)
	release, err := pub.Register(c.name, core.Window{Origin: chain.ObservationStart, Bucket: 6 * time.Hour}, kit.Summarize)
	if err != nil {
		return 0, err
	}
	defer release()
	dec, err := t.decoder(kit.Decoder, c.name, parent)
	if err != nil {
		return 0, err
	}
	return core.IngestArchive(ctx, c.reader, core.PeriodicMerge(dec, 0), cfg)
}

// liveServer is a Publisher behind serve.NewHandler on a real loopback
// socket, with the benchmark's one client connection to it.
type liveServer struct {
	pub     *serve.Publisher
	handler http.Handler // serve.NewHandler(pub), undecorated
	client  *queryClient
	scope   *scope // parent of the handler's spans
	stop    func()
}

func startServer(t *tracer) (*liveServer, error) {
	s := &liveServer{pub: serve.NewPublisher(), scope: newScope(-1)}
	s.handler = serve.NewHandler(s.pub)
	addr, stop, err := serveLoopback(t.handler(s.handler, "serve.handler", s.scope))
	if err != nil {
		return nil, err
	}
	s.client = newQueryClient("http://" + addr)
	s.stop = func() {
		s.client.close()
		stop()
	}
	return s, nil
}

// checkFigures fetches /v1/figures and tallies it against the oracle.
func (s *liveServer) checkFigures(ctx context.Context, r *roundResult, want string) error {
	status, body, _, err := s.client.get(ctx, "/v1/figures")
	if err != nil {
		return fmt.Errorf("GET /v1/figures: %w", err)
	}
	r.attempted++
	if status != http.StatusOK || string(body) != want {
		r.failed++
	}
	return nil
}

func serveRound(ctx context.Context, env *runEnv, i int, t *tracer) (roundResult, error) {
	ds := env.ds
	var r roundResult
	srv, err := startServer(t)
	if err != nil {
		return r, err
	}
	defer srv.stop()

	tickCtx, tickStop := context.WithCancel(ctx)
	defer tickStop()
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		srv.pub.Run(tickCtx, publishEvery)
	}()

	loopCtx, loopStop := context.WithCancel(ctx)
	defer loopStop()
	loopDone := make(chan loopStats, 1)
	mix := &queryMix{rng: derive(env.seed, 2000+uint64(i))}
	go func() {
		loopDone <- openLoop(loopCtx, openRatePerSec, derive(env.seed, 3000+uint64(i)), mix,
			srv.client.get, time.Now, time.Sleep)
	}()

	var blocks int64
	m := startMeter()
	rid := t.begin("round", -1, false)
	srv.scope.id.Store(rid)
	for _, c := range ds.chains {
		phase := newScope(t.begin("phase.feed."+c.name, rid, false))
		n, err := feedArchive(ctx, srv.pub, c, t, phase)
		t.end(phase.id.Load())
		if err != nil {
			return r, fmt.Errorf("feeding %s: %w", c.name, err)
		}
		blocks += n
	}
	srv.scope.id.Store(-1)
	t.end(rid)
	m.stop(&r)

	// The ingest is measured; stop the client, let the publisher write
	// its final epoch, and compare what the API now serves to the oracle.
	loopStop()
	loop := <-loopDone
	tickStop()
	<-tickDone
	if loop.firstErr != nil {
		fmt.Fprintf(os.Stderr, "serve round %d: %v\n", i, loop.firstErr)
	}
	verifyIngest(&r, ds, blocks, ds.figures)
	r.attempted += loop.sent
	r.failed += loop.failed
	r.latencies, r.lateness, r.ageMS = loop.latencies, loop.lateness, loop.ageMS
	r.publishes = int64(srv.pub.Current().Epoch)
	if err := srv.checkFigures(ctx, &r, ds.figures); err != nil {
		return r, err
	}
	return r, nil
}

// ---- query -------------------------------------------------------------

// queryEnv is the drained server the query workload's rounds hit.
type queryEnv struct {
	srv    *liveServer
	chains []string
}

func prepareQuery(ctx context.Context, env *runEnv, t *tracer) error {
	srv, err := startServer(t)
	if err != nil {
		return err
	}
	env.ds.closers = append(env.ds.closers, srv.stop)
	q := &queryEnv{srv: srv}
	for _, c := range env.ds.chains {
		// Untraced on purpose: the feed is set-up, not the workload.
		n, err := feedArchive(ctx, srv.pub, c, nil, nil)
		if err != nil {
			return fmt.Errorf("feeding %s: %w", c.name, err)
		}
		if n != c.head {
			return fmt.Errorf("feeding %s ingested %d of %d blocks", c.name, n, c.head)
		}
		q.chains = append(q.chains, c.name)
	}
	if !srv.pub.Drained() {
		return fmt.Errorf("publisher not drained after every feed returned")
	}
	env.query = q
	return nil
}

func queryRound(ctx context.Context, env *runEnv, i int, t *tracer) (roundResult, error) {
	q := env.query
	var r roundResult
	mix := &queryMix{rng: derive(env.seed, 4000+uint64(i)), chains: q.chains}
	m := startMeter()
	rid := t.begin("round", -1, false)
	q.srv.scope.id.Store(rid)
	loop := closedLoop(ctx, env.burst, mix, q.srv.client.get)
	q.srv.scope.id.Store(-1)
	t.end(rid)
	m.stop(&r)
	if loop.firstErr != nil {
		fmt.Fprintf(os.Stderr, "query round %d: %v\n", i, loop.firstErr)
	}
	r.ops = loop.sent - loop.failed
	r.attempted = loop.sent
	r.failed = loop.failed
	if err := q.srv.checkFigures(ctx, &r, env.ds.figures); err != nil {
		return r, err
	}
	return r, nil
}
