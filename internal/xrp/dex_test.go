package xrp

import (
	"testing"
	"time"
)

// dexFixture builds a gateway plus two traders holding BTC IOUs and XRP.
func dexFixture(t *testing.T) (*State, Address, Address, Address) {
	t.Helper()
	s := New(DefaultConfig(1000))
	gw := NewAddress("gateway")
	maker := NewAddress("maker")
	taker := NewAddress("taker")
	s.Fund(gw, 1_000_000*DropsPerXRP)
	s.Fund(maker, 1_000_000*DropsPerXRP)
	s.Fund(taker, 1_000_000*DropsPerXRP)
	submitAndClose(s,
		Transaction{Type: TxTrustSet, Account: maker, LimitAmount: IOU("BTC", gw, 1_000_000)},
		Transaction{Type: TxTrustSet, Account: taker, LimitAmount: IOU("BTC", gw, 1_000_000)},
	)
	submitAndClose(s, Transaction{
		Type: TxPayment, Account: gw, Destination: maker, Amount: IOU("BTC", gw, 100),
	})
	return s, gw, maker, taker
}

func TestOfferRestsOnBook(t *testing.T) {
	s, gw, maker, _ := dexFixture(t)
	led := submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: maker,
		TakerGets: IOU("BTC", gw, 1), TakerPays: XRP(30_000),
	})
	if code := led.Transactions[0].Result; !code.Success() {
		t.Fatalf("offer failed: %s", code)
	}
	offers := bookOffers(s, AssetKey{"BTC", gw}, AssetKey{Currency: "XRP"})
	if len(offers) != 1 {
		t.Fatalf("book has %d offers", len(offers))
	}
	if offers[0].Filled {
		t.Fatal("resting offer marked filled")
	}
	if got := s.GetAccount(maker).OwnerCount; got != 2 { // line + offer
		t.Fatalf("owner count = %d", got)
	}
}

func TestOfferCrossingExecutesTrade(t *testing.T) {
	s, gw, maker, taker := dexFixture(t)
	// Maker sells 1 BTC for 30,000 XRP.
	submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: maker,
		TakerGets: IOU("BTC", gw, 1), TakerPays: XRP(30_000),
	})
	// Taker buys BTC, willing to pay up to 30,500 XRP — crosses at the
	// maker's 30,000 price.
	led := submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: taker,
		TakerGets: XRP(30_500), TakerPays: IOU("BTC", gw, 1),
	})
	if code := led.Transactions[0].Result; !code.Success() {
		t.Fatalf("crossing offer failed: %s", code)
	}
	if got := s.IOUBalance(taker, gw, "BTC"); got != 1*DropsPerXRP {
		t.Fatalf("taker BTC = %d", got)
	}
	if got := s.IOUBalance(maker, gw, "BTC"); got != 99*DropsPerXRP {
		t.Fatalf("maker BTC = %d", got)
	}
	ex := s.Exchanges()
	if len(ex) != 1 {
		t.Fatalf("%d exchanges recorded", len(ex))
	}
	// The rate: 30,000 XRP per BTC (maker's price).
	if r := rate(ex[0]); r < 29_999 || r > 30_001 {
		t.Fatalf("exchange rate = %f", r)
	}
	if ex[0].Maker != maker || ex[0].Taker != taker {
		t.Fatal("exchange parties wrong")
	}
	// Maker received 30,000 XRP.
	makerAcct := s.GetAccount(maker)
	if makerAcct.Balance < 1_029_000*DropsPerXRP {
		t.Fatalf("maker XRP = %d", makerAcct.Balance)
	}
}

func TestOfferPartialFill(t *testing.T) {
	s, gw, maker, taker := dexFixture(t)
	submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: maker,
		TakerGets: IOU("BTC", gw, 10), TakerPays: XRP(300_000),
	})
	// Taker only wants 4 BTC.
	submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: taker,
		TakerGets: XRP(120_000), TakerPays: IOU("BTC", gw, 4),
	})
	offers := bookOffers(s, AssetKey{"BTC", gw}, AssetKey{Currency: "XRP"})
	if len(offers) != 1 {
		t.Fatalf("book has %d offers", len(offers))
	}
	if got := offers[0].TakerGets.Value; got != 6*DropsPerXRP {
		t.Fatalf("residual maker offer = %d", got)
	}
	if !offers[0].Filled {
		t.Fatal("partially filled offer not marked Filled")
	}
	if got := s.IOUBalance(taker, gw, "BTC"); got != 4*DropsPerXRP {
		t.Fatalf("taker BTC = %d", got)
	}
}

func TestOfferPriceRespected(t *testing.T) {
	s, gw, maker, taker := dexFixture(t)
	// Maker demands 40,000 XRP per BTC.
	submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: maker,
		TakerGets: IOU("BTC", gw, 1), TakerPays: XRP(40_000),
	})
	// Taker only pays up to 30,000: no cross, both offers rest.
	submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: taker,
		TakerGets: XRP(30_000), TakerPays: IOU("BTC", gw, 1),
	})
	if len(s.Exchanges()) != 0 {
		t.Fatal("trade executed through the spread")
	}
	if len(bookOffers(s, AssetKey{"BTC", gw}, AssetKey{Currency: "XRP"})) != 1 {
		t.Fatal("maker offer vanished")
	}
	if len(bookOffers(s, AssetKey{Currency: "XRP"}, AssetKey{"BTC", gw})) != 1 {
		t.Fatal("taker offer did not rest")
	}
}

func TestBestPriceFirst(t *testing.T) {
	s, gw, maker, taker := dexFixture(t)
	second := NewAddress("maker2")
	s.Fund(second, 1_000_000*DropsPerXRP)
	submitAndClose(s, Transaction{Type: TxTrustSet, Account: second, LimitAmount: IOU("BTC", gw, 1_000_000)})
	submitAndClose(s, Transaction{Type: TxPayment, Account: gw, Destination: second, Amount: IOU("BTC", gw, 100)})

	// Two asks: 35,000 (maker) and 30,000 (second). The taker must hit the
	// 30,000 one.
	submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: maker,
		TakerGets: IOU("BTC", gw, 1), TakerPays: XRP(35_000),
	})
	submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: second,
		TakerGets: IOU("BTC", gw, 1), TakerPays: XRP(30_000),
	})
	submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: taker,
		TakerGets: XRP(31_000), TakerPays: IOU("BTC", gw, 1),
	})
	ex := s.Exchanges()
	if len(ex) != 1 || ex[0].Maker != second {
		t.Fatalf("trade did not hit best ask: %+v", ex)
	}
}

func TestUnfundedOfferRejected(t *testing.T) {
	s, gw, _, taker := dexFixture(t)
	// Taker owns no BTC and is not the issuer: selling BTC must fail with
	// tecUNFUNDED_OFFER (the second most common failure in the dataset).
	led := submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: taker,
		TakerGets: IOU("BTC", gw, 5), TakerPays: XRP(100),
	})
	if code := led.Transactions[0].Result; code != TecUNFUNDED_OFFER {
		t.Fatalf("result = %s", code)
	}
}

func TestOfferCancel(t *testing.T) {
	s, gw, maker, _ := dexFixture(t)
	led := submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: maker,
		TakerGets: IOU("BTC", gw, 1), TakerPays: XRP(30_000),
	})
	seq := led.Transactions[0].RestingSequence
	if seq == 0 {
		t.Fatal("resting offer sequence not reported")
	}
	led = submitAndClose(s, Transaction{
		Type: TxOfferCancel, Account: maker, OfferSequence: seq,
	})
	if !led.Transactions[0].Result.Success() {
		t.Fatal("cancel failed")
	}
	if len(bookOffers(s, AssetKey{"BTC", gw}, AssetKey{Currency: "XRP"})) != 0 {
		t.Fatal("offer still on book")
	}
	// Cancelling a ghost offer still succeeds (main-net behaviour).
	led = submitAndClose(s, Transaction{Type: TxOfferCancel, Account: maker, OfferSequence: 9999})
	if !led.Transactions[0].Result.Success() {
		t.Fatal("ghost cancel failed")
	}
}

func TestExpiredOfferRejectedAndPurged(t *testing.T) {
	s, gw, maker, taker := dexFixture(t)
	past := s.Now().Add(-time.Hour)
	led := submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: maker,
		TakerGets: IOU("BTC", gw, 1), TakerPays: XRP(30_000), Expiration: past,
	})
	if code := led.Transactions[0].Result; code != TecEXPIRED {
		t.Fatalf("expired offer accepted: %s", code)
	}
	// An offer that expires while resting is purged when the book is hit.
	soon := s.Now().Add(2 * DefaultConfig(1000).CloseInterval)
	submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: maker,
		TakerGets: IOU("BTC", gw, 1), TakerPays: XRP(30_000), Expiration: soon,
	})
	s.CloseLedger()
	s.CloseLedger() // clock passes the expiry
	submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: taker,
		TakerGets: XRP(31_000), TakerPays: IOU("BTC", gw, 1),
	})
	if len(s.Exchanges()) != 0 {
		t.Fatal("trade executed against expired offer")
	}
}

func TestSelfTradeSameAccountAllowed(t *testing.T) {
	// The Myrone Bagalay case (§4.3): an account trading with itself (or
	// its own cluster) at arbitrary prices is legitimate on-ledger. The
	// simulator must allow different accounts of the same operator to cross.
	s := New(DefaultConfig(1000))
	issuer := NewAddress("myrone-issuer")
	buyer := NewAddress("myrone-buyer")
	s.Fund(issuer, 100_000*DropsPerXRP)
	s.Fund(buyer, 12_000_000*DropsPerXRP)
	submitAndClose(s, Transaction{Type: TxTrustSet, Account: buyer, LimitAmount: IOU("BTC", issuer, 1_000_000)})
	// Issuer sells its own BTC IOU at an absurd 30,500 XRP rate.
	submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: issuer,
		TakerGets: IOU("BTC", issuer, 300), TakerPays: XRP(9_150_000),
	})
	led := submitAndClose(s, Transaction{
		Type: TxOfferCreate, Account: buyer,
		TakerGets: XRP(9_150_000), TakerPays: IOU("BTC", issuer, 300),
	})
	if code := led.Transactions[0].Result; !code.Success() {
		t.Fatalf("self-cluster trade failed: %s", code)
	}
	ex := s.Exchanges()
	if len(ex) != 1 {
		t.Fatalf("%d exchanges", len(ex))
	}
	if r := rate(ex[0]); r < 30_000 || r > 31_000 {
		t.Fatalf("manipulated rate = %f, want ~30,500", r)
	}
}
