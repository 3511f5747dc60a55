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
)

func main() {
	scenario, err := workload.BuildXRP(workload.XRPOptions{Scale: 10_000})
	if err != nil {
		panic(err)
	}
	fmt.Println("simulating Oct 1 – Dec 31, 2019 on the XRP ledger…")
	ledgers := scenario.Run()
	fmt.Printf("closed %d ledgers\n\n", ledgers)

	// Fold every ledger straight from the ledger store into one state (the
	// pipeline package does the same through WebSocket + the Data API).
	st, err := core.NewShardState("xrp", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		panic(err)
	}
	agg := st.(*core.XRPShard)
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

	dir := explorer.NewDirectory(scenario.State)
	for addr, username := range scenario.Usernames {
		dir.Register(addr, username)
	}
	// The paper's sections over the state, with the explorer's clusters.
	p := core.Paper{XRP: agg, Scale: map[string]int64{"xrp": 10_000}, Dir: dir}
	fmt.Println(p.Figure7())
	fmt.Println(p.Figure11a())

	fmt.Println("Figure 11b — the Myrone BTC IOU over time:")
	for _, row := range agg.RateSeries(core.XRPAssetKey{Currency: "BTC", Issuer: string(scenario.MyroneIssuer)}) {
		fmt.Printf("  %s  %10.1f XRP per BTC\n", row.Start.Format("2006-01-02"), float64(row.Counts["rate_millis"])/1000)
	}
	fmt.Print("\n", p.Figure12())
}
