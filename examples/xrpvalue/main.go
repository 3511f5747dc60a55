// The zero-value XRP analysis (§4.3): run the calibrated ledger workload,
// value every payment through observed DEX rates, and decompose throughput
// into the paper's Figure 7 categories — including the Myrone Bagalay IOU
// manipulation and the per-issuer BTC rate table of Figure 11.
package main

import (
	"fmt"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/explorer"
	"repro/internal/rpcserve"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xrp"
)

func main() {
	scenario, err := workload.BuildXRP(workload.XRPOptions{Scale: 10_000})
	if err != nil {
		panic(err)
	}
	fmt.Println("simulating Oct 1 – Dec 31, 2019 on the XRP ledger…")
	ledgers := scenario.Run()
	fmt.Printf("closed %d ledgers\n\n", ledgers)

	// Feed the aggregator straight from the ledger store (the pipeline
	// package does the same through WebSocket + the Data API).
	agg := core.NewXRPAggregator(chain.ObservationStart, 6*time.Hour)
	for i := scenario.SetupLedgers + 1; i <= scenario.State.HeadIndex(); i++ {
		full := rpcserve.XRPLedgerToJSON(scenario.State.GetLedger(i), true)
		var led wire.XRPLedger
		wire.ProjectXRPLedger(&full, &led)
		if err := agg.IngestBatch([]any{&led}); err != nil {
			panic(err)
		}
	}
	// Trade records take the Data API's wire shape on the way in.
	fills := scenario.State.Exchanges()
	exchanges := make([]core.XRPExchange, 0, len(fills))
	for _, fill := range fills {
		ex, err := explorer.ExchangeToJSON(fill).ToExchange()
		if err != nil {
			panic(err)
		}
		exchanges = append(exchanges, ex)
	}
	agg.AddExchanges(exchanges)

	d := agg.Decompose()
	fmt.Println("Figure 7 decomposition:")
	fmt.Printf("  failed               %6.2f%%  (paper 10.7%%)\n", 100*d.FailedShare)
	fmt.Printf("  payments with value  %6.2f%%  (paper  2.1%%)\n", 100*d.PaymentsWithValue)
	fmt.Printf("  payments no value    %6.2f%%  (paper 36.0%%)\n", 100*d.PaymentsNoValue)
	fmt.Printf("  offers exchanged     %6.2f%%  (paper  0.1%%)\n", 100*d.OffersExchanged)
	fmt.Printf("  offers no exchange   %6.2f%%  (paper 49.4%%)\n", 100*d.OffersNoExchange)
	fmt.Printf("  => economic value    %6.2f%%  (paper ~2.3%%)\n\n", 100*d.EconomicShare)

	dir := explorer.NewDirectory(scenario.State)
	for addr, username := range scenario.Usernames {
		dir.Register(addr, username)
	}
	fmt.Println("Figure 11a — BTC IOU rates by issuer:")
	for _, ir := range agg.IssuerRates("BTC") {
		fmt.Printf("  %-28s %12.1f XRP\n", dir.ClusterName(xrp.Address(ir.Issuer)), ir.Rate)
	}

	fmt.Println("\nFigure 11b — the Myrone BTC IOU over time:")
	for _, row := range agg.RateSeries(core.XRPAssetKey{Currency: "BTC", Issuer: string(scenario.MyroneIssuer)}) {
		fmt.Printf("  %s  %10.1f XRP per BTC\n", row.Start.Format("2006-01-02"), float64(row.Counts["rate_millis"])/1000)
	}

	flow := agg.ValueFlow(func(a string) string { return dir.ClusterName(xrp.Address(a)) }, 5)
	fmt.Println("\nFigure 12 — top value senders (XRP-denominated):")
	for _, e := range flow.Senders {
		fmt.Printf("  %-28s %14.0f XRP (%.1f%%)\n", e.Name, e.XRPVolume, 100*e.XRPVolume/flow.TotalXRPVolume)
	}
}
