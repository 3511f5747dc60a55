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
	"time"

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

// BenchmarkFigure1TxTypeDistribution regenerates the per-chain transaction
// type distribution (paper Figure 1).
func BenchmarkFigure1TxTypeDistribution(b *testing.B) {
	r := benchResult(b)
	printTable("fig1", pipeline.Figure1(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pipeline.Figure1(r)
	}
}

// BenchmarkFigure2DatasetCharacterization regenerates the dataset table
// (paper Figure 2): blocks, transactions and gzip footprint per chain.
func BenchmarkFigure2DatasetCharacterization(b *testing.B) {
	r := benchResult(b)
	printTable("fig2", pipeline.Figure2(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pipeline.Figure2(r)
	}
}

// BenchmarkFigure3ThroughputOverTime regenerates the three throughput
// series (paper Figure 3), including the November 1 EIDOS regime change and
// the XRP payment-spam waves.
func BenchmarkFigure3ThroughputOverTime(b *testing.B) {
	r := benchResult(b)
	printTable("fig3", pipeline.Figure3(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pipeline.Figure3(r)
	}
}

// BenchmarkFigure4EOSTopApps regenerates the EOS top-application table
// (paper Figure 4).
func BenchmarkFigure4EOSTopApps(b *testing.B) {
	r := benchResult(b)
	printTable("fig4", pipeline.Figure4(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.EOS.TopReceivers(8)
	}
}

// BenchmarkFigure5EOSTopSenderPairs regenerates the EOS sender→receiver
// pair table (paper Figure 5).
func BenchmarkFigure5EOSTopSenderPairs(b *testing.B) {
	r := benchResult(b)
	printTable("fig5", pipeline.Figure5(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.EOS.TopSenderPairs(6, 3)
	}
}

// BenchmarkFigure6TezosTopSenders regenerates the Tezos top-sender fan-out
// table (paper Figure 6).
func BenchmarkFigure6TezosTopSenders(b *testing.B) {
	r := benchResult(b)
	printTable("fig6", pipeline.Figure6(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Tezos.TopSenders(6)
	}
}

// BenchmarkFigure7XRPValueDecomposition regenerates the XRP value Sankey
// (paper Figure 7): failed share, zero-value payments, unfulfilled offers,
// and the ~2.3 % economic share headline.
func BenchmarkFigure7XRPValueDecomposition(b *testing.B) {
	r := benchResult(b)
	printTable("fig7", pipeline.Figure7(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.XRP.Decompose()
	}
}

// BenchmarkFigure8XRPTopAccounts regenerates the most-active-accounts table
// (paper Figure 8) with Huobi-descendant clustering.
func BenchmarkFigure8XRPTopAccounts(b *testing.B) {
	r := benchResult(b)
	printTable("fig8", pipeline.Figure8(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.XRP.TopAccounts(10)
	}
}

// BenchmarkFigure9TezosGovernance regenerates the Babylon vote series
// (paper Figure 9).
func BenchmarkFigure9TezosGovernance(b *testing.B) {
	r := benchResult(b)
	printTable("fig9", pipeline.Figure9(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Gov.VoteSeries("ballot", 24*time.Hour)
	}
}

// BenchmarkFigure11IOURates regenerates the per-issuer BTC IOU rate table
// and the Myrone rate collapse (paper Figures 11a/11b).
func BenchmarkFigure11IOURates(b *testing.B) {
	r := benchResult(b)
	printTable("fig11", pipeline.Figure11(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.XRP.IssuerRates("BTC")
	}
}

// BenchmarkFigure12XRPValueFlow regenerates the XRP value-flow aggregation
// (paper Figure 12) with explorer-based clustering.
func BenchmarkFigure12XRPValueFlow(b *testing.B) {
	r := benchResult(b)
	printTable("fig12", pipeline.Figure12(r))
	cluster := r.ClusterFunc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.XRP.ValueFlow(cluster, 8)
	}
}

// BenchmarkHeadlineTPS regenerates the §3 throughput summary.
func BenchmarkHeadlineTPS(b *testing.B) {
	r := benchResult(b)
	printTable("tps", pipeline.HeadlineTPS(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.EstimatedFullScaleTPS(r.XRP.Transactions, r.XRP.FirstLedgerTime, r.XRP.LastLedgerTime, r.Opts.XRP.Scale)
	}
}

// BenchmarkCaseWhaleExWashTrading regenerates the §4.1 wash-trading
// analysis: self-trade shares, top-5 concentration, balance changes.
func BenchmarkCaseWhaleExWashTrading(b *testing.B) {
	r := benchResult(b)
	printTable("cases", pipeline.CaseStudies(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.AnalyzeWashTrades(r.EOS.Trades, 5)
	}
}

// BenchmarkCaseEIDOSBoomerang measures boomerang detection over the crawled
// EOS corpus (§4.1).
func BenchmarkCaseEIDOSBoomerang(b *testing.B) {
	r := benchResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.EOS.BoomerangTransactions()
		_ = r.EOS.EIDOSShare()
	}
}

// BenchmarkConcentration measures the Gini/top-k concentration statistics
// used for the "18 accounts carry half the traffic" observation.
func BenchmarkConcentration(b *testing.B) {
	r := benchResult(b)
	shares := r.XRP.TrafficShares()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Concentration(shares, 18)
	}
}

// BenchmarkRateOracle measures IOU valuation lookups against the exchange
// record set.
func BenchmarkRateOracle(b *testing.B) {
	r := benchResult(b)
	key := core.XRPAssetKey{Currency: "BTC", Issuer: string(r.XRPScenario.MyroneIssuer)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.XRP.RateToXRP(key)
	}
}

// BenchmarkPipelineEndToEnd measures the entire reproduction — build the
// three calibrated workloads, simulate the 92-day window, serve the chain
// APIs, probe and shortlist endpoints, crawl everything and aggregate —
// at coarse scales, so a single iteration stays around a second.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	opts := pipeline.DefaultOptions()
	opts.EOS.Scale = 200_000
	opts.Tezos.Scale = 3_200
	opts.XRP.Scale = 80_000
	opts.Gov.Scale = 1_600
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}
