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
	d := NewSpamClusterDetector()
	base := chain.ObservationStart

	// A hub activating 20 drones within a week.
	for i := 0; i < 20; i++ {
		d.ObserveActivation("rHub", fmt.Sprintf("rDrone%02d", i),
			base.Add(time.Duration(i)*8*time.Hour))
	}
	// An exchange activating users that transact externally.
	for i := 0; i < 15; i++ {
		d.ObserveActivation("rExchange", fmt.Sprintf("rUser%02d", i), base)
	}

	var payments []XRPPaymentView
	// Drones shuffle worthless tokens among themselves.
	for i := 0; i < 200; i++ {
		payments = append(payments, XRPPaymentView{
			From: fmt.Sprintf("rDrone%02d", i%20),
			To:   fmt.Sprintf("rDrone%02d", (i+7)%20),
		})
	}
	// A few flows leave the cluster.
	for i := 0; i < 10; i++ {
		payments = append(payments, XRPPaymentView{
			From: fmt.Sprintf("rDrone%02d", i%20), To: "rSomewhere", HasValue: true,
		})
	}
	// Exchange users pay the outside world (legitimate).
	for i := 0; i < 100; i++ {
		payments = append(payments, XRPPaymentView{
			From: fmt.Sprintf("rUser%02d", i%15), To: "rMerchant", HasValue: true,
		})
	}

	clusters := d.Detect(payments)
	if len(clusters) != 1 {
		t.Fatalf("clusters: %+v", clusters)
	}
	c := clusters[0]
	if c.Parent != "rHub" || c.Members != 20 {
		t.Fatalf("cluster: %+v", c)
	}
	if c.InternalShare < 0.9 {
		t.Fatalf("internal share = %f", c.InternalShare)
	}
	if c.ZeroValueShare != 1.0 {
		t.Fatalf("zero-value share = %f", c.ZeroValueShare)
	}
	if c.ActivationSpan <= 0 || c.ActivationSpan > 8*24*time.Hour {
		t.Fatalf("activation span = %v", c.ActivationSpan)
	}
}

func TestSpamClusterThresholds(t *testing.T) {
	d := NewSpamClusterDetector()
	// Too small a cluster: below MinMembers.
	for i := 0; i < 5; i++ {
		d.ObserveActivation("rTiny", fmt.Sprintf("rT%02d", i), chain.ObservationStart)
	}
	payments := []XRPPaymentView{{From: "rT00", To: "rT01"}}
	if got := d.Detect(payments); len(got) != 0 {
		t.Fatalf("tiny cluster reported: %+v", got)
	}
	// Big cluster but mostly external flows: not spam.
	for i := 0; i < 30; i++ {
		d.ObserveActivation("rLegit", fmt.Sprintf("rL%02d", i), chain.ObservationStart)
	}
	payments = nil
	for i := 0; i < 100; i++ {
		payments = append(payments, XRPPaymentView{From: fmt.Sprintf("rL%02d", i%30), To: "rOutside"})
	}
	payments = append(payments, XRPPaymentView{From: "rL00", To: "rL01"})
	if got := d.Detect(payments); len(got) != 0 {
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
	views := a.PaymentViews()
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
	det := NewSpamClusterDetector()
	for _, d := range drones {
		acct := st.GetAccount(d)
		det.ObserveActivation(string(acct.Parent), string(d), acct.Activated)
	}
	clusters := det.Detect(agg.PaymentViews())
	if len(clusters) != 1 || clusters[0].Parent != string(hub) {
		t.Fatalf("clusters: %+v", clusters)
	}
	// The drones' BTC shuffles are valueless; only the hub's 12 activating
	// XRP payments carry value.
	if clusters[0].ZeroValueShare < 0.9 {
		t.Fatalf("hub BTC should be valueless: %+v", clusters[0])
	}
}

// TestSpamClusterDetectorMerge: merging detectors is deterministic — the
// earliest activation wins, exact-time ties break to the smaller parent —
// so merge order never changes what Detect reports.
func TestSpamClusterDetectorMerge(t *testing.T) {
	t0 := time.Date(2019, time.October, 5, 0, 0, 0, 0, time.UTC)
	build := func(obs ...[3]string) *SpamClusterDetector {
		d := NewSpamClusterDetector()
		for _, o := range obs {
			offset, _ := time.ParseDuration(o[2])
			d.ObserveActivation(o[0], o[1], t0.Add(offset))
		}
		return d
	}
	// a saw child1 first; b re-saw child1 later under another parent and
	// saw child2 at the exact same instant a did, under a smaller parent.
	a := build([3]string{"hubA", "child1", "1h"}, [3]string{"hubB", "child2", "5h"})
	b := build([3]string{"hubC", "child1", "9h"}, [3]string{"hubA", "child2", "5h"})

	check := func(d *SpamClusterDetector) {
		t.Helper()
		if d.parentOf["child1"] != "hubA" || !d.activated["child1"].Equal(t0.Add(time.Hour)) {
			t.Fatalf("child1: parent %q at %v, want hubA at +1h", d.parentOf["child1"], d.activated["child1"])
		}
		if d.parentOf["child2"] != "hubA" {
			t.Fatalf("child2 tie broke to %q, want hubA (lexicographically smaller)", d.parentOf["child2"])
		}
	}
	ab := build()
	ab.Merge(a)
	ab.Merge(b)
	check(ab)
	ba := build()
	ba.Merge(b)
	ba.Merge(a)
	check(ba)
}
