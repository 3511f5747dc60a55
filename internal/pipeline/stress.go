package pipeline

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/rpcserve"
	"repro/internal/workload"
)

// EIDOSStressStage builds a fifth scenario for the stage graph, registered
// through Options.ExtraStages: it replays the EOS workload over the EIDOS
// airdrop week at a hotter arrival rate (the scale divisor is cut to a
// quarter of the EOS stage's default, i.e. roughly 4x the per-block
// traffic), serves it over the nodeos RPC, and drives the whole history
// through the streaming ingestion API — collect.Stream into the EOS
// aggregator's decoder under core.IngestStream. Its wall-clock and pipeline TPS
// land in Result.StageMetrics next to the built-in stages, so the stress
// replay's throughput is tracked by the same StageTimings table.
//
// The stage composes the two extension points this package exposes: the
// scheduler knows nothing about it (ExtraStages), and the measurement side
// reuses the chain-agnostic Decoder contract. It takes the full
// pipeline Options so its crawl honours the same knobs as the built-in
// stages — Workers, Buffer, IngestWorkers, Batch, and (when Options.Pool
// is set, as cmd/report -stress does) the shared fetch pool, keeping the
// documented total fetch-concurrency bound intact.
func EIDOSStressStage(o StageOptions, opts Options) Stage {
	return Stage{
		Name: "eidos-stress",
		Run: func(ctx context.Context) (StageStats, error) {
			opts = opts.withDefaults()
			scale := o.Scale
			if scale <= 0 {
				scale = DefaultOptions().EOS.Scale / 4
			}
			seed := o.Seed
			if seed == 0 {
				seed = DefaultOptions().EOS.Seed
			}
			scenario, err := workload.BuildEOS(workload.EOSOptions{
				Scale: scale, Seed: seed,
				// The EIDOS airdrop week: the hottest regime the paper
				// observed, when mining traffic quintupled EOS throughput.
				Start: chain.EIDOSLaunch,
				End:   chain.EIDOSLaunch.AddDate(0, 0, 7),
			})
			if err != nil {
				return StageStats{}, err
			}
			scenario.Run()

			url, stop, err := serve(rpcserve.NewEOSServer(scenario.Chain))
			if err != nil {
				return StageStats{}, err
			}
			defer stop()

			agg := core.NewEOSAggregator(chain.EIDOSLaunch, 6*time.Hour)
			crawl, err := crawlInto(ctx, collect.NewEOSClient(url), collect.CrawlConfig{
				Workers: opts.Workers, Pool: opts.Pool, Buffer: opts.Buffer,
			}, nil, agg.Decoder(), opts.ingestConfig())
			if err != nil {
				return StageStats{}, err
			}
			if agg.Transactions == 0 {
				return StageStats{}, fmt.Errorf("stress replay aggregated no transactions")
			}
			return StageStats{Blocks: crawl.Blocks, Transactions: agg.Transactions}, nil
		},
	}
}
