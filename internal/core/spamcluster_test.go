package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/rpcserve"
	"repro/internal/wire"
	"repro/internal/xrp"
)

func TestSpamClusterDetection(t *testing.T) {
	acts := make(map[string]activation)
	base := chain.ObservationStart

	// A hub activating 20 drones within a week.
	for i := 0; i < 20; i++ {
		acts[fmt.Sprintf("rDrone%02d", i)] = activation{"rHub", base.Add(time.Duration(i) * 8 * time.Hour)}
	}
	// An exchange activating users that transact externally.
	for i := 0; i < 15; i++ {
		acts[fmt.Sprintf("rUser%02d", i)] = activation{"rExchange", base}
	}

	var payments []paymentView
	// Drones shuffle worthless tokens among themselves.
	for i := 0; i < 200; i++ {
		payments = append(payments, paymentView{
			From: fmt.Sprintf("rDrone%02d", i%20),
			To:   fmt.Sprintf("rDrone%02d", (i+7)%20),
		})
	}
	// A few flows leave the cluster.
	for i := 0; i < 10; i++ {
		payments = append(payments, paymentView{
			From: fmt.Sprintf("rDrone%02d", i%20), To: "rSomewhere", HasValue: true,
		})
	}
	// Exchange users pay the outside world (legitimate).
	for i := 0; i < 100; i++ {
		payments = append(payments, paymentView{
			From: fmt.Sprintf("rUser%02d", i%15), To: "rMerchant", HasValue: true,
		})
	}

	clusters := detectSpamClusters(acts, payments)
	if len(clusters) != 1 {
		t.Fatalf("clusters: %+v", clusters)
	}
	c := clusters[0]
	if c.parent != "rHub" || c.members != 20 {
		t.Fatalf("cluster: %+v", c)
	}
	if c.internalShare < 0.9 {
		t.Fatalf("internal share = %f", c.internalShare)
	}
	if c.zeroValueShare != 1.0 {
		t.Fatalf("zero-value share = %f", c.zeroValueShare)
	}
	if c.activationSpan <= 0 || c.activationSpan > 8*24*time.Hour {
		t.Fatalf("activation span = %v", c.activationSpan)
	}
}

func TestSpamClusterThresholds(t *testing.T) {
	acts := make(map[string]activation)
	// Too small a cluster: below spamMinMembers.
	for i := 0; i < 5; i++ {
		acts[fmt.Sprintf("rT%02d", i)] = activation{"rTiny", chain.ObservationStart}
	}
	payments := []paymentView{{From: "rT00", To: "rT01"}}
	if got := detectSpamClusters(acts, payments); len(got) != 0 {
		t.Fatalf("tiny cluster reported: %+v", got)
	}
	// Big cluster but mostly external flows: not spam.
	for i := 0; i < 30; i++ {
		acts[fmt.Sprintf("rL%02d", i)] = activation{"rLegit", chain.ObservationStart}
	}
	payments = nil
	for i := 0; i < 100; i++ {
		payments = append(payments, paymentView{From: fmt.Sprintf("rL%02d", i%30), To: "rOutside"})
	}
	payments = append(payments, paymentView{From: "rL00", To: "rL01"})
	if got := detectSpamClusters(acts, payments); len(got) != 0 {
		t.Fatalf("externally-trading cluster reported: %+v", got)
	}
}

func TestPaymentViewsValuation(t *testing.T) {
	a := newShard[*XRPShard]()
	gw := "rGW"
	a.AddExchanges([]XRPExchange{{
		Time:      chain.ObservationStart,
		Base:      XRPAssetKey{Currency: "USD", Issuer: gw},
		Counter:   XRPAssetKey{Currency: "XRP"},
		BaseValue: 1 * xrp.DropsPerXRP, CounterValue: 5 * xrp.DropsPerXRP,
	}})
	a.IngestBatch([]any{xrpLedger(1, chain.ObservationStart,
		payment("rA", "rB", xrpAmt("XRP", "", 10), "tesSUCCESS"),
		payment("rA", "rB", xrpAmt("USD", gw, 10), "tesSUCCESS"),
		payment("rA", "rB", xrpAmt("JNK", "rNobody", 10), "tesSUCCESS"),
		payment("rA", "rB", xrpAmt("XRP", "", 10), "tecUNFUNDED_PAYMENT"),
	)})
	views := a.paymentViews(a.rates())
	if len(views) != 3 {
		t.Fatalf("views: %d (failed payment must be excluded)", len(views))
	}
	if !views[0].HasValue || !views[1].HasValue {
		t.Fatalf("native + rated IOU should have value: %+v", views[:2])
	}
	if views[2].HasValue {
		t.Fatal("junk IOU should be valueless")
	}
}

// TestSpamClusterEndToEnd drives the detector from simulated ledger data:
// activations observed via explorer-style parent pointers and payments from
// the crawled aggregate.
func TestSpamClusterEndToEnd(t *testing.T) {
	st := xrp.New(xrp.DefaultConfig(2000))
	hub := xrp.NewAddress("e2e-hub")
	st.Fund(hub, 1_000_000*xrp.DropsPerXRP)
	var drones []xrp.Address
	for i := 0; i < 12; i++ {
		d := xrp.NewAddress(fmt.Sprintf("e2e-drone-%d", i))
		st.Submit(xrp.Transaction{Type: xrp.TxPayment, Account: hub, Destination: d, Amount: xrp.XRP(100)})
		drones = append(drones, d)
	}
	st.CloseLedger()
	for _, d := range drones {
		st.Submit(xrp.Transaction{Type: xrp.TxTrustSet, Account: d, LimitAmount: xrp.IOU("BTC", hub, 1_000_000)})
	}
	st.CloseLedger()
	for _, d := range drones {
		st.Submit(xrp.Transaction{Type: xrp.TxPayment, Account: hub, Destination: d, Amount: xrp.IOU("BTC", hub, 1000)})
	}
	st.CloseLedger()
	for round := 0; round < 20; round++ {
		for i, d := range drones {
			st.Submit(xrp.Transaction{
				Type: xrp.TxPayment, Account: d, Destination: drones[(i+1)%len(drones)],
				Amount: xrp.IOU("BTC", hub, 1),
			})
		}
		st.CloseLedger()
	}

	agg := newShard[*XRPShard]()
	for i := int64(1); i <= st.HeadIndex(); i++ {
		full := rpcserve.XRPLedgerToJSON(st.GetLedger(i), true)
		var led wire.XRPLedger
		wire.ProjectXRPLedger(&full, &led)
		if err := agg.IngestBatch([]any{&led}); err != nil {
			t.Fatal(err)
		}
	}
	acts := make(map[string]activation)
	for _, d := range drones {
		acct := st.GetAccount(d)
		acts[string(d)] = activation{string(acct.Parent), acct.Activated}
	}
	clusters := detectSpamClusters(acts, agg.paymentViews(agg.rates()))
	if len(clusters) != 1 || clusters[0].parent != string(hub) {
		t.Fatalf("clusters: %+v", clusters)
	}
	// The drones' BTC shuffles are valueless; only the hub's 12 activating
	// XRP payments carry value.
	if clusters[0].zeroValueShare < 0.9 {
		t.Fatalf("hub BTC should be valueless: %+v", clusters[0])
	}
}
