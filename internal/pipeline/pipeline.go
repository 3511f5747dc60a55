// Package pipeline wires the full reproduction together: it builds the
// calibrated workloads, runs the three chain simulators over the
// observation window, serves their histories through the same network APIs
// the paper crawled (EOS HTTP RPC behind rate-limited endpoints, Tezos REST,
// XRP WebSocket plus the explorer's Data API), collects everything with the
// reverse-chronological crawler, and feeds the crawled wire data into the
// measurement aggregators.
//
// The stages are independent chain reproductions, so Run launches them all
// at once (see RunStages): each is one row of a table, and one runStage
// drives every row through collection, crawl and measurement. Per-stage
// wall-clocks surface in Result.StageMetrics.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/chain"
	"repro/internal/cli"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/eos"
	"repro/internal/explorer"
	"repro/internal/rpcserve"
	"repro/internal/tezos"
	"repro/internal/workload"
	"repro/internal/xrp"
)

// StageOptions are the per-stage scenario knobs. Every chain reproduction
// carries its own scale divisor and seed so scenarios can be re-run or
// extended independently.
type StageOptions struct {
	// Scale is the scale divisor (the paper's shares and rankings are
	// scale-invariant; see DESIGN.md). Zero selects a fast default
	// suitable for tests.
	Scale int64
	// Seed makes the stage's workload deterministic. Zero selects the
	// default seed.
	Seed int64
}

// Options selects the per-stage scales and crawl parallelism.
type Options struct {
	// EOS, Tezos, XRP and Gov configure the built-in stages.
	EOS, Tezos, XRP, Gov StageOptions
	// Stress, when set, adds the eidos-stress stage: the EOS workload over
	// the EIDOS airdrop week at a hotter arrival rate (a zero Scale selects
	// a quarter of the EOS default, roughly 4x the per-block traffic). Its
	// wall-clock and pipeline TPS land in Result.StageMetrics next to the
	// other stages.
	Stress *StageOptions

	// Workers sizes the crawl worker pool shared by every stage: it bounds
	// in-flight block fetches across all concurrent crawls.
	Workers int
	// SkipGovernance disables the Babylon replay when only the main
	// window is needed.
	SkipGovernance bool

	// ArchiveDir makes the producer side of every stage durable. It may be
	// a plain directory path or a blob-store URL (file://, mem://,
	// s3://bucket/prefix?endpoint=... — see blobstore.Resolve).
	// When set, each stage keeps its raw block archive under a per-stage
	// sub-location (ArchiveDir/eos, …): a live crawl tees its stream into
	// a fresh archive as it fetches, and a rerun whose archive already
	// covers the stage's block range replays it from storage instead —
	// no endpoints served, no probing, zero fetcher network calls. A
	// partial archive whose blocks all lie inside the stage's range — what
	// a run killed mid-crawl leaves behind — resumes: archived blocks come
	// from storage, only the missing ones are fetched live and appended,
	// and the rerun renders the full figures. An archive holding blocks
	// outside the range (a scale/seed change since it was written) fails
	// the stage with instructions to delete it, because silently mixing
	// archived blocks from different scenario parameters would corrupt
	// the measurement.
	ArchiveDir string
}

const (
	// streamBuffer is each stage's stream channel capacity: how many
	// fetched blocks may sit between crawl workers and the decode pool
	// before the fetch side blocks (backpressure).
	streamBuffer = 64
	// seriesBucket is the throughput time-series bucket (paper: 6 hours).
	seriesBucket = 6 * time.Hour
	// The EOS stage exposes eosEndpoints endpoints for probing and crawls
	// through the best eosShortlist of them, as the paper shortlisted 6
	// of 32.
	eosEndpoints = 8
	eosShortlist = 3
)

// ingestWorkers sizes each stage's decode/ingest pool: one worker per CPU,
// floor 2. The decode workers fold into private shards and never contend
// on a lock, so on multicore the stages get real CPU parallelism.
func ingestWorkers() int {
	return max(runtime.GOMAXPROCS(0), 2)
}

// DefaultOptions returns bench-friendly scales.
func DefaultOptions() Options {
	return Options{
		EOS:     StageOptions{Scale: 50_000, Seed: 1},
		Tezos:   StageOptions{Scale: 800, Seed: 1},
		XRP:     StageOptions{Scale: 20_000, Seed: 1},
		Gov:     StageOptions{Scale: 400, Seed: 1},
		Workers: 4,
	}
}

func (o Options) withDefaults() Options {
	def := DefaultOptions()
	norm := func(s, d StageOptions) StageOptions {
		if s.Scale <= 0 {
			s.Scale = d.Scale
		}
		if s.Seed == 0 {
			s.Seed = d.Seed
		}
		return s
	}
	o.EOS = norm(o.EOS, def.EOS)
	o.Tezos = norm(o.Tezos, def.Tezos)
	o.XRP = norm(o.XRP, def.XRP)
	o.Gov = norm(o.Gov, def.Gov)
	if o.Stress != nil {
		stress := norm(*o.Stress, StageOptions{Scale: def.EOS.Scale / 4, Seed: def.EOS.Seed})
		o.Stress = &stress
	}
	if o.Workers <= 0 {
		o.Workers = def.Workers
	}
	return o
}

// Result carries every aggregate the report renderers need.
type Result struct {
	Opts Options

	EOS   *core.EOSAggregator
	Tezos *core.TezosAggregator
	Gov   *core.TezosAggregator
	XRP   *core.XRPAggregator

	Dir *explorer.Directory

	// Per-stage crawl summaries. GzipBytes is Figure 2's footprint column:
	// the bytes of the stage's archive when it wrote one through, the
	// stream's gzip sizing otherwise (see crawlInto).
	EOSCrawl, TezosCrawl, XRPCrawl collect.CrawlResult

	// EndpointScores are the probe results behind the EOS shortlist.
	EndpointScores []collect.EndpointScore
	Shortlisted    []collect.EndpointScore

	// XRPScenario exposes actor addresses for case-study lookups.
	XRPScenario *workload.XRPScenario
	// EOSScenario exposes the EOS chain for case-study lookups.
	EOSScenario *workload.EOSScenario

	// StageMetrics records each stage's wall-clock, crawl volume and
	// pipeline-side TPS, ordered like the stage table.
	StageMetrics []StageMetric
}

// ClusterFunc returns the Figure 12 clustering function backed by the
// explorer directory.
func (r *Result) ClusterFunc() core.ClusterFunc {
	return func(addr string) string { return r.Dir.ClusterName(xrp.Address(addr)) }
}

// stagePlan is one built row of the stage table: a row's build method runs
// its simulator, points the Result at the aggregator the stage fills, and
// returns what differs between the chain reproductions. runStage owns
// everything they share.
type stagePlan struct {
	// chain names the wire format, as archive manifests record it.
	chain string
	// ccfg carries the crawl range and any per-block retry settings;
	// runStage adds the pipeline-wide worker, pool and buffer sizing.
	ccfg collect.CrawlConfig
	// live serves the simulated chain and returns its fetcher and their
	// teardown; it may cap ccfg.Workers at what the client supports. It
	// runs only when live fetches are possible: a full archive replay
	// serves and probes nothing.
	live func(ctx context.Context, ccfg *collect.CrawlConfig) (collect.BlockFetcher, func(), error)
	// dec and txs are the typed aggregator's chain-agnostic surfaces.
	dec core.Decoder
	txs func() int64
	// crawl, when set, receives the crawl summary; post, when set, runs
	// after a successful crawl.
	crawl *collect.CrawlResult
	post  func() error
}

// stages is the stage table, in StageMetrics order. Its rows fill r and
// crawl through one shared fetch pool, which bounds in-flight fetches
// across all of them.
func (r *Result) stages() []Stage {
	pool := collect.NewPool(r.Opts.Workers)
	row := func(name string, build func() (stagePlan, error)) Stage {
		return Stage{Name: name, Run: func(ctx context.Context) (StageStats, error) {
			return r.runStage(ctx, name, build, pool)
		}}
	}
	stages := []Stage{row("eos", r.buildEOS), row("tezos", r.buildTezos), row("xrp", r.buildXRP)}
	if !r.Opts.SkipGovernance {
		stages = append(stages, row("governance", r.buildGovernance))
	}
	if r.Opts.Stress != nil {
		stages = append(stages, row("eidos-stress", r.buildStress))
	}
	return stages
}

// Run executes the whole reproduction: every row of the stage table runs
// concurrently over a shared crawl worker pool. The first stage failure
// cancels the others and is returned.
func Run(ctx context.Context, opts Options) (*Result, error) {
	res := &Result{Opts: opts.withDefaults()}
	metrics, err := RunStages(ctx, res.stages())
	res.StageMetrics = metrics
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runStage drives one row end to end: build the simulated history, resolve
// the collection source (archive replay, or the live fetcher teed into the
// stage's archive), and crawl into the row's aggregator.
func (r *Result) runStage(ctx context.Context, name string, build func() (stagePlan, error), pool *collect.Pool) (StageStats, error) {
	opts := r.Opts
	plan, err := build()
	if err != nil {
		return StageStats{}, err
	}
	ccfg := plan.ccfg
	ccfg.Workers, ccfg.Pool, ccfg.Buffer = opts.Workers, pool, streamBuffer
	fetcher, sink, cleanup, err := opts.stageCollect(name, plan.chain, ccfg.From, ccfg.To, &ccfg, func() (collect.BlockFetcher, func(), error) {
		return plan.live(ctx, &ccfg)
	})
	defer cleanup()
	if err != nil {
		return StageStats{}, err
	}
	crawl, err := crawlInto(ctx, fetcher, ccfg, sink, plan.dec, core.IngestConfig{Workers: ingestWorkers()})
	if err != nil {
		return StageStats{}, err
	}
	if plan.crawl != nil {
		*plan.crawl = crawl
	}
	if plan.post != nil {
		if err := plan.post(); err != nil {
			return StageStats{}, err
		}
	}
	return StageStats{Blocks: crawl.Blocks, Transactions: plan.txs()}, nil
}

// crawlInto runs one stage's collection→measurement path on the streaming
// API: collect.Stream fetches raw blocks into a bounded channel and
// core.IngestStream decodes and batch-ingests them off the crawl workers
// (see core.IngestCrawl for the wiring). It then finalizes the stage's
// archive (sink, nil when the stage has none or replays it), joining a
// finalization failure with the crawl's own error so neither is lost. A
// stage with a sink had each payload deflated there and nowhere else, so
// the result's GzipBytes — Figure 2's footprint column — is the bytes the
// archive now holds; every other stage keeps the stream's own sizing.
func crawlInto(ctx context.Context, f collect.BlockFetcher, ccfg collect.CrawlConfig, sink *archive.Crawl, dec core.Decoder, icfg core.IngestConfig) (collect.CrawlResult, error) {
	res, _, err := core.IngestCrawl(ctx, f, ccfg, dec, icfg)
	if sink != nil {
		if cerr := sink.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("pipeline: finalizing archive: %w", cerr))
		}
		res.GzipBytes = sink.CompressedBytes()
	}
	return res, err
}

// serve starts an HTTP server on a loopback port and returns its base URL
// and a shutdown function.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := cli.BoundedServer(h)
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// oneEndpoint is the live source of every stage that crawls a single
// endpoint: serve the chain's API on a loopback port and dial it with the
// chain's client (the XRP ledger API speaks WebSocket).
func oneEndpoint(chain string, h http.Handler) func(context.Context, *collect.CrawlConfig) (collect.BlockFetcher, func(), error) {
	return func(_ context.Context, ccfg *collect.CrawlConfig) (collect.BlockFetcher, func(), error) {
		url, stop, err := serve(h)
		if err != nil {
			return nil, nil, err
		}
		if chain == "xrp" {
			url = "ws" + strings.TrimPrefix(url, "http")
		}
		f, closeClient, maxWorkers, err := collect.Dial(chain, url)
		if err != nil {
			return nil, stop, err
		}
		if maxWorkers > 0 {
			ccfg.Workers = maxWorkers
		}
		return f, func() { closeClient(); stop() }, nil
	}
}

// eosPlan is the part of a plan the two EOS rows share: crawl the whole
// history into a fresh aggregator anchored at w.
func eosPlan(c *eos.Chain, w core.Window) (stagePlan, *core.EOSAggregator) {
	agg := core.NewEOSAggregator(w.Origin, w.Bucket)
	return stagePlan{
		chain: "eos", ccfg: collect.CrawlConfig{From: 1, To: int64(c.HeadNum())},
		dec: agg.Decoder(),
		txs: func() int64 { return agg.Transactions },
	}, agg
}

func (r *Result) buildEOS() (stagePlan, error) {
	scenario, err := workload.BuildEOS(workload.EOSOptions{Scale: r.Opts.EOS.Scale, Seed: r.Opts.EOS.Seed})
	if err != nil {
		return stagePlan{}, err
	}
	scenario.Run()
	r.EOSScenario = scenario
	plan, agg := eosPlan(scenario.Chain, core.Window{Origin: chain.ObservationStart, Bucket: seriesBucket})
	r.EOS, plan.crawl = agg, &r.EOSCrawl
	plan.ccfg.MaxRetries, plan.ccfg.Backoff = 8, 5*time.Millisecond
	plan.live = func(ctx context.Context, _ *collect.CrawlConfig) (collect.BlockFetcher, func(), error) {
		return r.shortlistEOS(ctx, scenario.Chain)
	}
	return plan, nil
}

// eosEndpointProfiles cycle over the endpoints the EOS stage exposes.
var eosEndpointProfiles = [...]rpcserve.EndpointProfile{
	{}, // generous
	{RatePerSec: 5000, Burst: 500},
	{RatePerSec: 20, Burst: 5},      // stingy rate limit
	{Latency: 5 * time.Millisecond}, // slow
}

// shortlistEOS is the EOS stage's live source — the paper's §3.1
// methodology: expose several endpoints with varying generosity, probe
// them, and crawl through the shortlist. A replay skips all of it: the
// archive is the endpoint.
func (r *Result) shortlistEOS(ctx context.Context, c *eos.Chain) (collect.BlockFetcher, func(), error) {
	handler := rpcserve.NewEOSServer(c)
	var stops []func()
	stopAll := func() {
		for _, stop := range stops {
			stop()
		}
	}
	for i := 0; i < eosEndpoints; i++ {
		url, stop, err := serve(eosEndpointProfiles[i%len(eosEndpointProfiles)].Middleware(handler))
		if err != nil {
			return nil, stopAll, err
		}
		stops = append(stops, stop)
		r.EndpointScores = append(r.EndpointScores, collect.ProbeEndpoint(ctx, url, collect.NewEOSClient(url), 6))
	}
	r.Shortlisted = collect.Shortlist(r.EndpointScores, eosShortlist)
	fetchers := make([]collect.BlockFetcher, 0, len(r.Shortlisted))
	for _, s := range r.Shortlisted {
		fetchers = append(fetchers, collect.NewEOSClient(s.URL))
	}
	if len(fetchers) == 0 {
		return nil, stopAll, fmt.Errorf("no EOS endpoints survived probing")
	}
	return &collect.MultiFetcher{Fetchers: fetchers}, stopAll, nil
}

// buildStress replays the EOS workload over the EIDOS airdrop week — the
// hottest regime the paper observed, when mining traffic quintupled EOS
// throughput — served from one endpoint, no probing.
func (r *Result) buildStress() (stagePlan, error) {
	scenario, err := workload.BuildEOS(workload.EOSOptions{
		Scale: r.Opts.Stress.Scale, Seed: r.Opts.Stress.Seed,
		Start: chain.EIDOSLaunch, End: chain.EIDOSLaunch.AddDate(0, 0, 7),
	})
	if err != nil {
		return stagePlan{}, err
	}
	scenario.Run()
	plan, agg := eosPlan(scenario.Chain, core.Window{Origin: chain.EIDOSLaunch, Bucket: 6 * time.Hour})
	plan.live = oneEndpoint("eos", rpcserve.NewEOSServer(scenario.Chain))
	plan.post = func() error {
		if agg.Transactions == 0 {
			return fmt.Errorf("stress replay aggregated no transactions")
		}
		return nil
	}
	return plan, nil
}

// tezosPlan is the plan the two Tezos rows share: serve the chain from one
// endpoint and crawl its whole history into a fresh aggregator anchored at
// w.
func tezosPlan(c *tezos.Chain, w core.Window) (stagePlan, *core.TezosAggregator) {
	agg := core.NewTezosAggregator(w.Origin, w.Bucket)
	return stagePlan{
		chain: "tezos", ccfg: collect.CrawlConfig{From: 1, To: c.HeadLevel()},
		live: oneEndpoint("tezos", rpcserve.NewTezosServer(c)),
		dec:  agg.Decoder(),
		txs:  func() int64 { return agg.Operations },
	}, agg
}

func (r *Result) buildTezos() (stagePlan, error) {
	scenario, err := workload.BuildTezos(workload.TezosOptions{Scale: r.Opts.Tezos.Scale, Seed: r.Opts.Tezos.Seed})
	if err != nil {
		return stagePlan{}, err
	}
	if _, err := scenario.Run(); err != nil {
		return stagePlan{}, err
	}
	plan, agg := tezosPlan(scenario.Chain, core.Window{Origin: chain.ObservationStart, Bucket: seriesBucket})
	r.Tezos, plan.crawl = agg, &r.TezosCrawl
	return plan, nil
}

func (r *Result) buildGovernance() (stagePlan, error) {
	g, err := workload.BuildTezosGovernance(workload.GovernanceOptions{Scale: r.Opts.Gov.Scale, Seed: r.Opts.Gov.Seed})
	if err != nil {
		return stagePlan{}, err
	}
	if _, err := g.Run(); err != nil {
		return stagePlan{}, err
	}
	// The governance replay starts in July; anchor its series there.
	plan, agg := tezosPlan(g.Chain, core.Window{Origin: time.Date(2019, time.July, 17, 0, 0, 0, 0, time.UTC), Bucket: 24 * time.Hour})
	r.Gov = agg
	return plan, nil
}

func (r *Result) buildXRP() (stagePlan, error) {
	scenario, err := workload.BuildXRP(workload.XRPOptions{Scale: r.Opts.XRP.Scale, Seed: r.Opts.XRP.Seed})
	if err != nil {
		return stagePlan{}, err
	}
	scenario.Run()
	r.XRPScenario = scenario
	// The explorer (XRP Scan + Data API): usernames and trade records.
	r.Dir = explorer.NewDirectory(scenario.State)
	for addr, username := range scenario.Usernames {
		r.Dir.Register(addr, username)
	}
	agg := core.NewXRPAggregator(chain.ObservationStart, seriesBucket)
	r.XRP = agg
	return stagePlan{
		chain: "xrp",
		// The build phase's ledgers stand in for pre-window history (gateway
		// issuance, trust lines); the paper's window starts at October 1, so
		// the crawl does too.
		ccfg:  collect.CrawlConfig{From: scenario.SetupLedgers + 1, To: scenario.State.HeadIndex()},
		live:  oneEndpoint("xrp", rpcserve.NewXRPServer(scenario.State)),
		dec:   agg.Decoder(),
		txs:   func() int64 { return agg.Transactions },
		crawl: &r.XRPCrawl,
		// Pull trade records from the Data API, as the paper did for rates.
		// The explorer serves even on replay: exchange records come from
		// it, not from the crawled ledger stream.
		post: func() error {
			exURL, stopEx, err := serve(explorer.NewServer(r.Dir, explorer.NewRateOracle(scenario.State)))
			if err != nil {
				return err
			}
			defer stopEx()
			exchanges, err := explorer.FetchExchanges(exURL)
			if err == nil {
				agg.AddExchanges(exchanges)
			}
			return err
		},
	}, nil
}
