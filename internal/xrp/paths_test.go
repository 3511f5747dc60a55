package xrp

import "testing"

// pathFixture: a maker sells 100 USD at 5 XRP/USD; sender holds XRP only,
// receiver has a USD trust line.
func pathFixture(t *testing.T) (*State, Address, Address, Address, Address) {
	t.Helper()
	s := New(DefaultConfig(1000))
	gw := NewAddress("path-gw")
	maker := NewAddress("path-maker")
	sender := NewAddress("path-sender")
	receiver := NewAddress("path-receiver")
	for _, a := range []Address{gw, maker, sender, receiver} {
		s.Fund(a, 100_000*DropsPerXRP)
	}
	submitAndClose(s,
		Transaction{Type: TxTrustSet, Account: maker, LimitAmount: IOU("USD", gw, 1_000_000)},
		Transaction{Type: TxTrustSet, Account: receiver, LimitAmount: IOU("USD", gw, 1_000_000)},
	)
	submitAndClose(s, Transaction{Type: TxPayment, Account: gw, Destination: maker, Amount: IOU("USD", gw, 1000)})
	led := submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: maker,
		TakerGets: IOU("USD", gw, 100), TakerPays: XRP(500),
	})
	if code := led.Transactions[0].Result; !code.Success() {
		t.Fatalf("maker offer: %s", code)
	}
	return s, gw, maker, sender, receiver
}

func TestCrossCurrencyPaymentDelivers(t *testing.T) {
	s, gw, maker, sender, receiver := pathFixture(t)
	sendMax := XRP(300)
	led := submitAndClose(s, Transaction{
		Type: TxPayment, Account: sender, Destination: receiver,
		Amount: IOU("USD", gw, 40), SendMax: &sendMax,
	})
	tx := led.Transactions[0]
	if !tx.Result.Success() {
		t.Fatalf("cross-currency payment: %s", tx.Result)
	}
	if got := s.IOUBalance(receiver, gw, "USD"); got != 40*DropsPerXRP {
		t.Fatalf("receiver USD = %d", got)
	}
	// Sender paid 40 × 5 = 200 XRP plus the fee.
	wantBalance := 100_000*DropsPerXRP - 200*DropsPerXRP - 10
	if got := s.GetAccount(sender).Balance; got != int64(wantBalance) {
		t.Fatalf("sender XRP = %d, want %d", got, wantBalance)
	}
	// The maker's offer shrank and an exchange was recorded.
	offers := bookOffers(s, AssetKey{"USD", gw}, AssetKey{Currency: "XRP"})
	if len(offers) != 1 || offers[0].TakerGets.Value != 60*DropsPerXRP {
		t.Fatalf("residual offer: %+v", offers)
	}
	if len(s.Exchanges()) != 1 || s.Exchanges()[0].Maker != maker {
		t.Fatalf("exchanges: %+v", s.Exchanges())
	}
	if tx.DeliveredAmount != IOU("USD", gw, 40) {
		t.Fatalf("delivered: %+v", tx.DeliveredAmount)
	}
}

func TestCrossCurrencyPaymentDryBook(t *testing.T) {
	s, gw, _, sender, receiver := pathFixture(t)
	// More USD than the book holds: PATH_DRY without side effects.
	sendMax := XRP(10_000)
	before := s.GetAccount(sender).Balance
	led := submitAndClose(s, Transaction{
		Type: TxPayment, Account: sender, Destination: receiver,
		Amount: IOU("USD", gw, 500), SendMax: &sendMax,
	})
	if code := led.Transactions[0].Result; code != TecPATH_DRY {
		t.Fatalf("dry book: %s", code)
	}
	if got := s.GetAccount(sender).Balance; got != before-10 { // fee only
		t.Fatalf("partial state leaked: %d -> %d", before, got)
	}
	if got := s.IOUBalance(receiver, gw, "USD"); got != 0 {
		t.Fatalf("receiver got %d despite dry path", got)
	}
}

func TestCrossCurrencyPaymentSendMaxTooTight(t *testing.T) {
	s, gw, _, sender, receiver := pathFixture(t)
	// 40 USD costs 200 XRP; a 100 XRP cap cannot cover it.
	sendMax := XRP(100)
	led := submitAndClose(s, Transaction{
		Type: TxPayment, Account: sender, Destination: receiver,
		Amount: IOU("USD", gw, 40), SendMax: &sendMax,
	})
	if code := led.Transactions[0].Result; code != TecPATH_DRY {
		t.Fatalf("tight SendMax: %s", code)
	}
}

func TestCrossCurrencyPaymentNeedsReceiverLine(t *testing.T) {
	s, gw, _, sender, _ := pathFixture(t)
	stranger := NewAddress("no-line")
	s.Fund(stranger, 1000*DropsPerXRP)
	sendMax := XRP(300)
	led := submitAndClose(s, Transaction{
		Type: TxPayment, Account: sender, Destination: stranger,
		Amount: IOU("USD", gw, 10), SendMax: &sendMax,
	})
	if code := led.Transactions[0].Result; code != TecPATH_DRY {
		t.Fatalf("missing receiver line: %s", code)
	}
}

func TestCrossCurrencyConsumesMultipleOffers(t *testing.T) {
	s, gw, maker, sender, receiver := pathFixture(t)
	// Add a second, cheaper maker with 20 USD at 4 XRP.
	second := NewAddress("path-maker2")
	s.Fund(second, 100_000*DropsPerXRP)
	submitAndClose(s, Transaction{Type: TxTrustSet, Account: second, LimitAmount: IOU("USD", gw, 1_000_000)})
	submitAndClose(s, Transaction{Type: TxPayment, Account: gw, Destination: second, Amount: IOU("USD", gw, 100)})
	submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: second,
		TakerGets: IOU("USD", gw, 20), TakerPays: XRP(80),
	})
	// 50 USD: 20 from the cheap maker (80 XRP), 30 from the first (150 XRP).
	sendMax := XRP(500)
	led := submitAndClose(s, Transaction{
		Type: TxPayment, Account: sender, Destination: receiver,
		Amount: IOU("USD", gw, 50), SendMax: &sendMax,
	})
	if code := led.Transactions[0].Result; !code.Success() {
		t.Fatalf("multi-offer path: %s", code)
	}
	if got := s.IOUBalance(receiver, gw, "USD"); got != 50*DropsPerXRP {
		t.Fatalf("receiver USD = %d", got)
	}
	ex := s.Exchanges()
	if len(ex) != 2 {
		t.Fatalf("%d exchanges", len(ex))
	}
	// Best price first: the 4 XRP/USD maker fills before the 5 XRP/USD one.
	if ex[0].Maker != second || ex[1].Maker != maker {
		t.Fatalf("fill order: %s then %s", ex[0].Maker, ex[1].Maker)
	}
	spent := ex[0].CounterValue + ex[1].CounterValue
	if spent != 230*DropsPerXRP {
		t.Fatalf("spent %d drops, want 230 XRP", spent)
	}
}

func TestSameAssetSendMaxStaysDirect(t *testing.T) {
	s, a := fixture(t, "x1", "x2")
	sendMax := XRP(50)
	led := submitAndClose(s, Transaction{
		Type: TxPayment, Account: a["x1"], Destination: a["x2"],
		Amount: XRP(10), SendMax: &sendMax,
	})
	if code := led.Transactions[0].Result; !code.Success() {
		t.Fatalf("direct payment with same-asset SendMax: %s", code)
	}
}
