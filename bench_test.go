package repro

// The benchmark harness regenerates every table and figure from the paper's
// evaluation. Each benchmark prints its table once (so `go test -bench=.`
// doubles as the reproduction report) and then measures the cost of the
// analysis that produces it. BenchmarkPipelineEndToEnd measures the whole
// reproduction — workload, simulation, crawl, measurement.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The scales used here are bench-friendly; cmd/report -eos-scale/-xrp-scale
// flags rerun the pipeline at finer scales for tighter convergence.
//
// Nothing here is gated: whether a change made the system slower is answered
// by the parent-vs-change ledger run in bench/ (DESIGN.md "How performance
// is judged"), which is also where the wire decode/encode and raw→aggregate
// unit costs are measured.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

var (
	benchOnce sync.Once
	benchRes  *pipeline.Result
	benchErr  error

	printOnce sync.Map
)

// benchResult runs the pipeline once per test binary at bench scales.
func benchResult(b *testing.B) *pipeline.Result {
	b.Helper()
	benchOnce.Do(func() {
		opts := pipeline.DefaultOptions()
		benchRes, benchErr = pipeline.Run(context.Background(), opts)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRes
}

// printTable emits a figure's rows exactly once across the bench run.
func printTable(name, content string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", content)
	}
}

// benchSection prints a section once and then times rendering it: the
// analysis that produces the table, from the run's drained states.
func benchSection(b *testing.B, name string, render func(*pipeline.Result) string) {
	r := benchResult(b)
	printTable(name, render(r))
	b.ResetTimer()
	for b.Loop() {
		_ = render(r)
	}
}

// paperSection adapts one of core's shard-derived sections to a run.
func paperSection(section func(core.Paper) string) func(*pipeline.Result) string {
	return func(r *pipeline.Result) string { return section(r.Paper()) }
}

// BenchmarkFigure1TxTypeDistribution regenerates the per-chain transaction
// type distribution (paper Figure 1).
func BenchmarkFigure1TxTypeDistribution(b *testing.B) {
	benchSection(b, "fig1", paperSection(core.Paper.Figure1))
}

// BenchmarkFigure2DatasetCharacterization regenerates the dataset table
// (paper Figure 2): blocks, transactions and gzip footprint per chain.
func BenchmarkFigure2DatasetCharacterization(b *testing.B) {
	benchSection(b, "fig2", pipeline.Figure2)
}

// BenchmarkFigure3ThroughputOverTime regenerates the three throughput
// series (paper Figure 3), including the November 1 EIDOS regime change and
// the XRP payment-spam waves.
func BenchmarkFigure3ThroughputOverTime(b *testing.B) {
	benchSection(b, "fig3", paperSection(core.Paper.Figure3))
}

// BenchmarkFigure4EOSTopApps regenerates the EOS top-application table
// (paper Figure 4).
func BenchmarkFigure4EOSTopApps(b *testing.B) {
	benchSection(b, "fig4", paperSection(core.Paper.Figure4))
}

// BenchmarkFigure5EOSTopSenderPairs regenerates the EOS sender→receiver
// pair table (paper Figure 5).
func BenchmarkFigure5EOSTopSenderPairs(b *testing.B) {
	benchSection(b, "fig5", paperSection(core.Paper.Figure5))
}

// BenchmarkFigure6TezosTopSenders regenerates the Tezos top-sender fan-out
// table (paper Figure 6).
func BenchmarkFigure6TezosTopSenders(b *testing.B) {
	benchSection(b, "fig6", paperSection(core.Paper.Figure6))
}

// BenchmarkFigure7XRPValueDecomposition regenerates the XRP value Sankey
// (paper Figure 7): failed share, zero-value payments, unfulfilled offers,
// and the ~2.3 % economic share headline.
func BenchmarkFigure7XRPValueDecomposition(b *testing.B) {
	benchSection(b, "fig7", paperSection(core.Paper.Figure7))
}

// BenchmarkFigure8XRPTopAccounts regenerates the most-active-accounts table
// (paper Figure 8) with Huobi-descendant clustering and the concentration
// statistics behind "18 accounts carry half the traffic".
func BenchmarkFigure8XRPTopAccounts(b *testing.B) {
	benchSection(b, "fig8", paperSection(core.Paper.Figure8))
}

// BenchmarkFigure9TezosGovernance regenerates the Babylon vote series
// (paper Figure 9).
func BenchmarkFigure9TezosGovernance(b *testing.B) {
	benchSection(b, "fig9", pipeline.Figure9)
}

// BenchmarkFigure11IOURates regenerates the per-issuer BTC IOU rate table
// and the Myrone rate collapse (paper Figures 11a/11b).
func BenchmarkFigure11IOURates(b *testing.B) {
	benchSection(b, "fig11", func(r *pipeline.Result) string {
		return r.Paper().Figure11a() + pipeline.Figure11b(r)
	})
}

// BenchmarkFigure12XRPValueFlow regenerates the XRP value-flow aggregation
// (paper Figure 12) with explorer-based clustering.
func BenchmarkFigure12XRPValueFlow(b *testing.B) {
	benchSection(b, "fig12", paperSection(core.Paper.Figure12))
}

// BenchmarkHeadlineTPS regenerates the §3 throughput summary.
func BenchmarkHeadlineTPS(b *testing.B) {
	benchSection(b, "tps", paperSection(core.Paper.HeadlineTPS))
}

// BenchmarkCaseStudies regenerates the §4.1 analyses: WhaleEx self-trade
// shares, top-5 concentration and balance changes, EIDOS boomerangs.
func BenchmarkCaseStudies(b *testing.B) {
	benchSection(b, "cases", func(r *pipeline.Result) string {
		return r.Paper().CaseStudies() + pipeline.CaseNotes(r)
	})
}

// BenchmarkSpamClusters regenerates the spam-cluster extension (§4.3
// generalized) from explorer parentage and payment flows.
func BenchmarkSpamClusters(b *testing.B) {
	benchSection(b, "spam", paperSection(core.Paper.SpamClusters))
}

// BenchmarkPipelineEndToEnd measures the entire reproduction — build the
// three calibrated workloads, simulate the 92-day window, serve the chain
// APIs, probe and shortlist endpoints, crawl everything and aggregate —
// at coarse scales, so a single iteration stays around a second.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	opts := pipeline.DefaultOptions()
	opts.EOSScale = 200_000
	opts.TezosScale = 3_200
	opts.XRPScale = 80_000
	opts.GovScale = 1_600
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}
