package core

import (
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/wire"
)

// xrpLedger builds the ledger in its full wire shape and returns what a
// decode would leave of it.
func xrpLedger(index int64, ts time.Time, txs ...wire.XRPTxJSON) *wire.XRPLedger {
	out := new(wire.XRPLedger)
	wire.ProjectXRPLedger(&wire.XRPLedgerJSON{
		LedgerIndex:  index,
		CloseTime:    ts.Format(time.RFC3339),
		TxCount:      len(txs),
		Transactions: txs,
	}, out)
	return out
}

func xrpAmt(currency, issuer string, units int64) *wire.XRPAmountJSON {
	return &wire.XRPAmountJSON{Currency: currency, Issuer: issuer, Value: units * xrpDropsPerXRP}
}

func payment(from, to string, amt *wire.XRPAmountJSON, result string) wire.XRPTxJSON {
	tx := wire.XRPTxJSON{
		TransactionType: "Payment", Account: from, Destination: to,
		Amount: amt, Result: result,
	}
	if result == "tesSUCCESS" {
		tx.DeliveredAmount = amt
	}
	return tx
}

func TestXRPAggregatorDecompose(t *testing.T) {
	a := newShard[*XRPShard]()
	ts := chain.ObservationStart
	gw := "rGateway"

	// 10 transactions: 1 failed payment, 2 XRP payments (value), 3 IOU
	// payments of a worthless token, 3 offers (1 executed), 1 TrustSet.
	a.IngestBatch([]any{xrpLedger(1, ts,
		payment("rA", "rB", xrpAmt("XRP", "", 100), "tecUNFUNDED_PAYMENT"),
		payment("rA", "rB", xrpAmt("XRP", "", 10), "tesSUCCESS"),
		payment("rB", "rA", xrpAmt("XRP", "", 20), "tesSUCCESS"),
		payment("rC", "rD", xrpAmt("JNK", gw, 500), "tesSUCCESS"),
		payment("rC", "rD", xrpAmt("JNK", gw, 500), "tesSUCCESS"),
		payment("rD", "rC", xrpAmt("JNK", gw, 500), "tesSUCCESS"),
		wire.XRPTxJSON{TransactionType: "OfferCreate", Account: "rE", Sequence: 1,
			Result: "tesSUCCESS", Executed: true},
		wire.XRPTxJSON{TransactionType: "OfferCreate", Account: "rE", Sequence: 2,
			Result: "tesSUCCESS", RestingSequence: 2},
		wire.XRPTxJSON{TransactionType: "OfferCreate", Account: "rF", Sequence: 1,
			Result: "tesSUCCESS", RestingSequence: 1},
		wire.XRPTxJSON{TransactionType: "TrustSet", Account: "rC", Result: "tesSUCCESS"},
	)})

	d := a.Decompose()
	if d.Total != 10 {
		t.Fatalf("total = %d", d.Total)
	}
	if d.FailedShare != 0.1 {
		t.Fatalf("failed share = %f", d.FailedShare)
	}
	// 2 of 10 payments carry value (XRP native), 3 are worthless IOUs.
	if d.PaymentsWithValue != 0.2 || d.PaymentsNoValue != 0.3 {
		t.Fatalf("payments: value=%f novalue=%f", d.PaymentsWithValue, d.PaymentsNoValue)
	}
	// 1 executed of 3 offers.
	if d.OffersExchanged != 0.1 || d.OffersNoExchange != 0.2 {
		t.Fatalf("offers: ex=%f no=%f", d.OffersExchanged, d.OffersNoExchange)
	}
	if d.OfferFulfillmentRate < 0.33 || d.OfferFulfillmentRate > 0.34 {
		t.Fatalf("fulfillment = %f", d.OfferFulfillmentRate)
	}
	if d.EconomicShare < 0.299 || d.EconomicShare > 0.301 {
		t.Fatalf("economic share = %f", d.EconomicShare)
	}
	// TrustSet lands in others.
	if d.OthersSuccessful < 0.099 || d.OthersSuccessful > 0.101 {
		t.Fatalf("others = %f", d.OthersSuccessful)
	}
}

func TestXRPMakerFillCountsAsExchanged(t *testing.T) {
	a := newShard[*XRPShard]()
	a.IngestBatch([]any{xrpLedger(1, chain.ObservationStart,
		wire.XRPTxJSON{TransactionType: "OfferCreate", Account: "rMaker", Sequence: 7,
			Result: "tesSUCCESS", RestingSequence: 7},
	)})
	d := a.Decompose()
	if d.OffersExchanged != 0 {
		t.Fatal("resting offer counted as exchanged prematurely")
	}
	// Later, the explorer reports a fill of that offer.
	a.AddExchanges([]XRPExchange{{
		Time:      chain.ObservationStart.Add(time.Hour),
		Base:      XRPAssetKey{Currency: "BTC", Issuer: "rGW"},
		Counter:   XRPAssetKey{Currency: "XRP"},
		BaseValue: 1 * xrpDropsPerXRP, CounterValue: 30_000 * xrpDropsPerXRP,
		Maker: "rMaker", MakerSequence: 7,
	}})
	d = a.Decompose()
	if d.OffersExchanged == 0 {
		t.Fatal("maker fill not attributed")
	}
}

func TestXRPRatesFromExchanges(t *testing.T) {
	a := newShard[*XRPShard]()
	btcBitstamp := XRPAssetKey{Currency: "BTC", Issuer: "rBitstamp"}
	btcSpammer := XRPAssetKey{Currency: "BTC", Issuer: "rSpammer"}
	xrpKey := XRPAssetKey{Currency: "XRP"}
	a.AddExchanges([]XRPExchange{
		{Time: chain.ObservationStart, Base: btcBitstamp, Counter: xrpKey,
			BaseValue: 1 * xrpDropsPerXRP, CounterValue: 36_050 * xrpDropsPerXRP},
		{Time: chain.ObservationStart, Base: btcBitstamp, Counter: xrpKey,
			BaseValue: 2 * xrpDropsPerXRP, CounterValue: 2 * 35_950 * xrpDropsPerXRP},
		// Reverse direction quote: buying BTC with XRP.
		{Time: chain.ObservationStart, Base: xrpKey, Counter: btcSpammer,
			BaseValue: 1 * xrpDropsPerXRP, CounterValue: 1000 * xrpDropsPerXRP},
	})
	rates := a.rates()
	if r := rates.of(btcBitstamp); r < 35_999 || r > 36_001 {
		t.Fatalf("bitstamp BTC rate = %f", r)
	}
	if r := rates.of(btcSpammer); r < 0.0009 || r > 0.0011 {
		t.Fatalf("spammer BTC rate = %f", r)
	}
	if r := rates.of(XRPAssetKey{Currency: "BTC", Issuer: "rUnknown"}); r != 0 {
		t.Fatalf("untraded issuer rate = %f", r)
	}
	if rates.of(xrpKey) != 1 {
		t.Fatal("XRP self-rate must be 1")
	}

	issuers := a.IssuerRates("BTC")
	if len(issuers) != 2 || issuers[0].Issuer != "rBitstamp" || issuers[1].Issuer != "rSpammer" ||
		issuers[0].Trades != 2 || issuers[1].Trades != 1 {
		t.Fatalf("issuer rates: %+v", issuers)
	}
}

func TestXRPTopAccountsAndDestTag(t *testing.T) {
	a := newShard[*XRPShard]()
	var txs []wire.XRPTxJSON
	for i := 0; i < 98; i++ {
		txs = append(txs, wire.XRPTxJSON{
			TransactionType: "OfferCreate", Account: "rHuobiBot", Sequence: uint32(i + 1),
			Result: "tesSUCCESS", RestingSequence: uint32(i + 1),
		})
	}
	txs = append(txs, wire.XRPTxJSON{
		TransactionType: "Payment", Account: "rHuobiBot", Destination: "rHuobi",
		DestinationTag: 104398, Amount: xrpAmt("XRP", "", 1), Result: "tesSUCCESS",
		DeliveredAmount: xrpAmt("XRP", "", 1),
	})
	txs = append(txs, payment("rSmall", "rOther", xrpAmt("XRP", "", 1), "tesSUCCESS"))
	a.IngestBatch([]any{xrpLedger(1, chain.ObservationStart, txs...)})

	top := a.TopAccounts(1)
	if top[0].Account != "rHuobiBot" || top[0].Total != 99 {
		t.Fatalf("top: %+v", top[0])
	}
	if top[0].OfferShare < 0.98 {
		t.Fatalf("offer share = %f", top[0].OfferShare)
	}
	if top[0].DominantDestTag != 104398 {
		t.Fatalf("dest tag = %d", top[0].DominantDestTag)
	}

	conc := concentration(a.trafficShares(), 1)
	if conc.TopKShare < 0.98 {
		t.Fatalf("concentration: %+v", conc)
	}
}

func TestXRPValueFlowClusters(t *testing.T) {
	a := newShard[*XRPShard]()
	gw := "rGW"
	a.AddExchanges([]XRPExchange{{
		Time:      chain.ObservationStart,
		Base:      XRPAssetKey{Currency: "USD", Issuer: gw},
		Counter:   XRPAssetKey{Currency: "XRP"},
		BaseValue: 1 * xrpDropsPerXRP, CounterValue: 5 * xrpDropsPerXRP, // 5 XRP/USD
	}})
	a.IngestBatch([]any{xrpLedger(1, chain.ObservationStart,
		payment("rBinance1", "rUser1", xrpAmt("XRP", "", 1000), "tesSUCCESS"),
		payment("rBinance2", "rUser2", xrpAmt("USD", gw, 100), "tesSUCCESS"),     // 500 XRP eq
		payment("rNobody", "rUser3", xrpAmt("JNK", gw, 1_000_000), "tesSUCCESS"), // worthless
	)})
	flow := a.ValueFlow(usernames{"rBinance1": "Binance", "rBinance2": "Binance"}, 5)
	if flow.TotalXRPVolume < 1499 || flow.TotalXRPVolume > 1501 {
		t.Fatalf("volume = %f", flow.TotalXRPVolume)
	}
	if flow.Senders[0].Name != "Binance" || flow.Senders[0].XRPVolume < 1499 {
		t.Fatalf("senders: %+v", flow.Senders)
	}
	if flow.Currencies[0].Name != "XRP" || len(flow.Currencies) != 2 {
		t.Fatalf("currencies: %+v", flow.Currencies)
	}
}

func TestXRPRateSeriesChronological(t *testing.T) {
	a := newShard[*XRPShard]()
	key := XRPAssetKey{Currency: "BTC", Issuer: "rLiquidIssuer"}
	xrpKey := XRPAssetKey{Currency: "XRP"}
	// December trade at 30,500; January trades at 1 and 0.1 (Figure 11b).
	dec := time.Date(2019, 12, 14, 0, 0, 0, 0, time.UTC)
	jan := time.Date(2020, 1, 9, 0, 0, 0, 0, time.UTC)
	a.AddExchanges([]XRPExchange{
		{Time: jan, Base: key, Counter: xrpKey, BaseValue: 10 * xrpDropsPerXRP, CounterValue: 1 * xrpDropsPerXRP},
		{Time: dec, Base: key, Counter: xrpKey, BaseValue: 1 * xrpDropsPerXRP, CounterValue: 30_500 * xrpDropsPerXRP},
	})
	pts := a.RateSeries(key)
	if len(pts) != 2 {
		t.Fatalf("points: %d", len(pts))
	}
	if !pts[0].Time.Equal(dec) {
		t.Fatal("series not chronological")
	}
	if pts[0].RateMillis != 30_500_000 {
		t.Fatalf("first rate: %d", pts[0].RateMillis)
	}
	if pts[1].RateMillis != 100 { // 0.1 XRP
		t.Fatalf("collapsed rate: %d", pts[1].RateMillis)
	}
}

// usernames is an explorer directory that knows usernames and no parents.
type usernames map[string]string

func (u usernames) ClusterName(addr string) string {
	if name, ok := u[addr]; ok {
		return name
	}
	return addr
}

func (usernames) Activation(string) (string, time.Time) { return "", time.Time{} }
