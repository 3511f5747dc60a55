package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions (a test keeps the two in step);
// bound and moves live here and in README.md, because BENCHMARK.json's
// schema has no place for them on a per-layer metric.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a PR is rejected (0 on per-layer metrics,
	// which are reported, never gated).
	bound float64
	// moves names the end-to-end metric and workloads a change to this
	// layer metric should move — written down before anything is measured.
	moves string
}

// defaultSeconds is BENCHMARK.json's run_seconds: how long the measured
// phase lasts when the command line does not say (the driver always says,
// and always says this).
const defaultSeconds = 20

// endToEnd are the gated metrics, each reported by every workload. One
// operation is a block ingested end to end (crawl, replay, coordinate,
// serve) or a request answered (query). Each bound is three times the
// widest spread (IQR ÷ median of ten seeded runs) any workload showed for
// that metric in either ten-run set at landing, rounded up and capped at
// the driver's 0.25; README.md lists the spreads.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		moves: "set-up at reference speed, median of 3: simulate, serve on loopback, crawl once into archives, open them (query: plus feeding a publisher)"},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25,
		moves: "operations per second at reference speed, median over rounds"},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.05,
		moves: "whole-process Mallocs delta over a round's measured phase ÷ operations, mean over rounds"},
	{name: "coord_overhead", unit: "ratio", better: "lower", bound: 0.08,
		moves: "coordinate: coordinated pass ÷ the single-process pass over the same reader timed right after it, both at reference speed, median over rounds; 1 by definition where nothing is coordinated"},
}

const (
	onCrawl   = "ops_per_s on crawl only; flat on replay, coordinate, serve, query"
	onIngest  = "ops_per_s and allocs_per_op on replay (largest share), then coordinate, serve, least on crawl; never query"
	onArchive = "ops_per_s on replay (open, walk) and serve (walk)"
	onCoord   = "coord_overhead and ops_per_s on coordinate only"
	onServe   = "ops_per_s on serve; the open-loop latencies"
	onQuery   = "ops_per_s and allocs_per_op on query; the open-loop latencies on serve; nothing else"
	ungated   = "reported, never gated"
	// The open-loop client sends on a real-time schedule, so what it sees
	// does not scale with machine speed and stays uncorrected.
	rawOpenLoop = ungated + " (raw wall-clock, scheduler-bound on 2 vCPUs)"
)

// perLayer are the traced run's metrics. A layer that does not run on a
// workload reads 0 there. Durations are at reference speed like the
// end-to-end ones, except the raw.* and ref.* rows and what the open-loop
// client reads off a real-time schedule (serve.open_*, serve.snapshot_age_ms).
var perLayer = []metricDef{
	{name: "rpcserve.encode_us_per_block", unit: "us", better: "lower", moves: onCrawl},
	{name: "collect.fetch_us_per_block", unit: "us", better: "lower", moves: onCrawl + " (coordinate: archive reader as fetcher)"},
	{name: "collect.fetch_busy_share", unit: "ratio", better: "lower", moves: onCrawl},
	{name: "collect.retries", unit: "count", better: "lower", moves: onCrawl},
	{name: "archive.append_us_per_block", unit: "us", better: "lower", moves: onCrawl},

	{name: "wire.decode_us_per_block.eos", unit: "us", better: "lower", moves: onIngest},
	{name: "wire.decode_us_per_block.tezos", unit: "us", better: "lower", moves: onIngest},
	{name: "wire.decode_us_per_block.xrp", unit: "us", better: "lower", moves: onIngest},
	{name: "wire.decode_allocs_per_block", unit: "count", better: "lower", moves: onIngest},
	{name: "core.aggregate_us_per_block.eos", unit: "us", better: "lower", moves: onIngest},
	{name: "core.aggregate_us_per_block.tezos", unit: "us", better: "lower", moves: onIngest},
	{name: "core.aggregate_us_per_block.xrp", unit: "us", better: "lower", moves: onIngest},

	{name: "archive.open_ms", unit: "ms", better: "lower", moves: onArchive},
	{name: "archive.walk_us_per_block", unit: "us", better: "lower", moves: onArchive},
	{name: "archive.comp_ratio", unit: "ratio", better: "higher", moves: onArchive},

	{name: "core.replay_scaling_2w", unit: "ratio", better: "higher", moves: "ops_per_s on replay (1-worker time ÷ 2-worker time)"},
	{name: "core.merge_ms", unit: "ms", better: "lower", moves: "ops_per_s on replay, serve (periodic merges) and coordinate"},
	{name: "core.render_ms", unit: "ms", better: "lower", moves: "ops_per_s on every ingest workload; publish cost on serve"},

	{name: "core.shard_encode_ms", unit: "ms", better: "lower", moves: onCoord},
	{name: "core.shard_decode_ms", unit: "ms", better: "lower", moves: onCoord},
	{name: "core.shard_kb", unit: "KB", better: "lower", moves: onCoord},
	{name: "coord.lease_ops", unit: "count", better: "lower", moves: onCoord},
	{name: "coord.lease_us", unit: "us", better: "lower", moves: onCoord},
	{name: "coord.runstate_ckpts", unit: "count", better: "lower", moves: onCoord},
	{name: "coord.runstate_us", unit: "us", better: "lower", moves: onCoord},
	{name: "coord.worker_ckpts", unit: "count", better: "lower", moves: onCoord},
	{name: "coord.worker_ckpt_kb", unit: "KB", better: "lower", moves: onCoord},
	{name: "blobstore.puts", unit: "count", better: "lower", moves: onCoord + "; crawl (segment puts)"},
	{name: "blobstore.put_kb", unit: "KB", better: "lower", moves: onCoord + "; crawl (segment puts)"},
	{name: "blobstore.gets", unit: "count", better: "lower", moves: onCoord + "; replay (segment gets)"},
	{name: "blobstore.op_us", unit: "us", better: "lower", moves: onCoord},

	{name: "serve.publish_ms", unit: "ms", better: "lower", moves: onServe},
	{name: "serve.publishes", unit: "count", better: "lower", moves: onServe},
	{name: "serve.snapshot_age_ms", unit: "ms", better: "lower", moves: onServe + " (raw wall-clock, as the open-loop client saw it)"},
	{name: "serve.handler_us.status", unit: "us", better: "lower", moves: onQuery},
	{name: "serve.handler_us.summary", unit: "us", better: "lower", moves: onQuery},
	{name: "serve.handler_us.figures", unit: "us", better: "lower", moves: onQuery},
	{name: "serve.handler_us.percentiles", unit: "us", better: "lower", moves: onQuery},

	{name: "serve.open_p50_us", unit: "us", better: "lower", moves: rawOpenLoop},
	{name: "serve.open_p99_us", unit: "us", better: "lower", moves: rawOpenLoop},
	{name: "serve.open_p999_us", unit: "us", better: "lower", moves: rawOpenLoop},
	{name: "serve.open_late_us", unit: "us", better: "lower", moves: rawOpenLoop + "; how late the generator sent, mean"},
	{name: "raw.ops_per_s", unit: "1/s", better: "higher", moves: ungated + " (ops_per_s before the reference-speed correction)"},
	{name: "tx_per_s", unit: "1/s", better: "higher", moves: ungated + " (ops_per_s × transactions per block)"},
	{name: "mb_per_s", unit: "MB/s", better: "higher", moves: ungated + " (ops_per_s × raw payload MB per block)"},
	{name: "go.alloc_kb_per_op", unit: "KB", better: "lower", moves: ungated},
	{name: "go.gc_cycles_per_round", unit: "count", better: "lower", moves: ungated},
	{name: "ref.kernel_ms", unit: "ms", better: "lower", moves: ungated + " (the reference kernel's median in this run)"},
	{name: "ref.drift_ratio", unit: "ratio", better: "lower", moves: ungated + " (slowest ÷ fastest kernel in the run: how bad the box was)"},
	{name: "ref.parallel_slowdown", unit: "ratio", better: "lower", moves: ungated + " (the kernel's 2-goroutine reading ÷ its 1-goroutine reading, each over its nominal: 1 on a quiet box, 2 when the vCPUs share a core)"},
	{name: "rounds", unit: "count", better: "higher", moves: ungated + " (untraced rounds measured)"},
	{name: "budget.unattributed_share", unit: "ratio", better: "lower", moves: ungated + " (wall × workers minus the layers' busy time)"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher", moves: ungated + " (traced ÷ untraced ops_per_s)"},
}
