package xrp

import (
	"strings"
	"testing"
	"testing/quick"
)

// fixture builds a ledger with funded, activated accounts.
func fixture(t *testing.T, names ...string) (*State, map[string]Address) {
	t.Helper()
	s := New(DefaultConfig(1000))
	addrs := make(map[string]Address, len(names))
	for _, n := range names {
		a := NewAddress(n)
		addrs[n] = a
		s.Fund(a, 10_000*DropsPerXRP)
	}
	return s, addrs
}

func submitAndClose(s *State, txs ...Transaction) *Ledger {
	for _, tx := range txs {
		s.Submit(tx)
	}
	return s.CloseLedger()
}

func TestAddressValidation(t *testing.T) {
	// A classic address: 'r', then 24 to 34 characters of XRP's alphabet.
	a := NewAddress("genesis")
	if len(a) < 25 || len(a) > 35 || a[0] != 'r' || strings.Trim(string(a), xrpAlphabet) != "" {
		t.Fatalf("%q is not a classic address", a)
	}
	if NewAddress("x") == NewAddress("y") {
		t.Fatal("addresses collided")
	}
}

func TestXRPPayment(t *testing.T) {
	s, a := fixture(t, "alice", "bob")
	led := submitAndClose(s, Transaction{
		Type: TxPayment, Account: a["alice"], Destination: a["bob"], Amount: XRP(100),
	})
	if len(led.Transactions) != 1 {
		t.Fatalf("ledger txs = %d", len(led.Transactions))
	}
	tx := led.Transactions[0]
	if !tx.Result.Success() {
		t.Fatalf("result = %s", tx.Result)
	}
	if got := s.GetAccount(a["bob"]).Balance; got != 10_100*DropsPerXRP {
		t.Fatalf("bob = %d", got)
	}
	// Sender paid amount + fee.
	if got := s.GetAccount(a["alice"]).Balance; got != 10_000*DropsPerXRP-100*DropsPerXRP-10 {
		t.Fatalf("alice = %d", got)
	}
	if tx.DeliveredAmount != XRP(100) {
		t.Fatalf("delivered = %v", tx.DeliveredAmount)
	}
}

func TestPaymentActivatesAccountAndRecordsParent(t *testing.T) {
	s, a := fixture(t, "exchange")
	child := NewAddress("fresh-account")
	led := submitAndClose(s, Transaction{
		Type: TxPayment, Account: a["exchange"], Destination: child, Amount: XRP(25),
	})
	if code := led.Transactions[0].Result; !code.Success() {
		t.Fatalf("activation failed: %s", code)
	}
	acct := s.GetAccount(child)
	if acct == nil || acct.Parent != a["exchange"] {
		t.Fatalf("parent not recorded: %+v", acct)
	}
	// Below the 20 XRP reserve, activation must fail with tecNO_DST.
	led = submitAndClose(s, Transaction{
		Type: TxPayment, Account: a["exchange"], Destination: NewAddress("too-poor"), Amount: XRP(5),
	})
	if code := led.Transactions[0].Result; code != TecNO_DST {
		t.Fatalf("underfunded activation: %s", code)
	}
}

func TestFailedTxRecordedFeeBurned(t *testing.T) {
	s, a := fixture(t, "alice", "bob")
	// Overspend: 10k balance minus reserve cannot cover 50k.
	led := submitAndClose(s, Transaction{
		Type: TxPayment, Account: a["alice"], Destination: a["bob"], Amount: XRP(50_000),
	})
	if len(led.Transactions) != 1 {
		t.Fatal("failed tx not recorded in ledger")
	}
	if code := led.Transactions[0].Result; code != TecUNFUNDED_PAYMENT {
		t.Fatalf("result = %s", code)
	}
	if s.BurnedFees != 10 {
		t.Fatalf("burned fees = %d", s.BurnedFees)
	}
	// Balance only lost the fee.
	if got := s.GetAccount(a["alice"]).Balance; got != 10_000*DropsPerXRP-10 {
		t.Fatalf("alice = %d", got)
	}
}

func TestReserveBlocksSpending(t *testing.T) {
	s, _ := fixture(t)
	poor := NewAddress("poor")
	s.Fund(poor, 21*DropsPerXRP)
	rich := NewAddress("rich2")
	s.Fund(rich, 1000*DropsPerXRP)
	led := submitAndClose(s, Transaction{
		Type: TxPayment, Account: poor, Destination: rich, Amount: XRP(5),
	})
	if code := led.Transactions[0].Result; code != TecUNFUNDED_PAYMENT {
		t.Fatalf("reserve not enforced: %s", code)
	}
}

func TestDestinationTagRequired(t *testing.T) {
	s, a := fixture(t, "user", "exchange")
	submitAndClose(s, Transaction{
		Type: TxAccountSet, Account: a["exchange"], DestinationTag: 1, // set RequireDest
	})
	led := submitAndClose(s, Transaction{
		Type: TxPayment, Account: a["user"], Destination: a["exchange"], Amount: XRP(1),
	})
	if code := led.Transactions[0].Result; code != TecDST_TAG_NEEDED {
		t.Fatalf("missing tag accepted: %s", code)
	}
	// With the Huobi-style tag the payment succeeds.
	led = submitAndClose(s, Transaction{
		Type: TxPayment, Account: a["user"], Destination: a["exchange"], Amount: XRP(1),
		DestinationTag: 104398,
	})
	if code := led.Transactions[0].Result; !code.Success() {
		t.Fatalf("tagged payment failed: %s", code)
	}
}

func TestUnknownAccountNotIncluded(t *testing.T) {
	s, _ := fixture(t)
	led := submitAndClose(s, Transaction{
		Type: TxPayment, Account: NewAddress("ghost"), Destination: NewAddress("x"), Amount: XRP(1),
	})
	if len(led.Transactions) != 0 {
		t.Fatal("tx from unknown account included")
	}
	if s.NotIncluded != 1 {
		t.Fatalf("NotIncluded = %d", s.NotIncluded)
	}
}

func TestTrustSetAndIOUPayment(t *testing.T) {
	s, a := fixture(t, "gateway", "alice", "bob")
	gw := a["gateway"]
	// Both users open USD trust lines to the gateway.
	led := submitAndClose(s,
		Transaction{Type: TxTrustSet, Account: a["alice"], LimitAmount: IOU("USD", gw, 1000)},
		Transaction{Type: TxTrustSet, Account: a["bob"], LimitAmount: IOU("USD", gw, 500)},
	)
	for _, tx := range led.Transactions {
		if !tx.Result.Success() {
			t.Fatalf("trustset failed: %s", tx.Result)
		}
	}
	// Gateway issues 200 USD to alice.
	led = submitAndClose(s, Transaction{
		Type: TxPayment, Account: gw, Destination: a["alice"], Amount: IOU("USD", gw, 200),
	})
	if code := led.Transactions[0].Result; !code.Success() {
		t.Fatalf("issue failed: %s", code)
	}
	if got := s.IOUBalance(a["alice"], gw, "USD"); got != 200*DropsPerXRP {
		t.Fatalf("alice USD = %d", got)
	}
	// Alice pays bob 50 USD (rippling through the issuer).
	led = submitAndClose(s, Transaction{
		Type: TxPayment, Account: a["alice"], Destination: a["bob"], Amount: IOU("USD", gw, 50),
	})
	if code := led.Transactions[0].Result; !code.Success() {
		t.Fatalf("IOU payment failed: %s", code)
	}
	if got := s.IOUBalance(a["bob"], gw, "USD"); got != 50*DropsPerXRP {
		t.Fatalf("bob USD = %d", got)
	}
	// Bob redeems 20 USD with the issuer: his balance shrinks, issuer holds
	// nothing (IOUs returning to the issuer vanish).
	led = submitAndClose(s, Transaction{
		Type: TxPayment, Account: a["bob"], Destination: gw, Amount: IOU("USD", gw, 20),
	})
	if code := led.Transactions[0].Result; !code.Success() {
		t.Fatalf("redeem failed: %s", code)
	}
	if got := s.IOUBalance(a["bob"], gw, "USD"); got != 30*DropsPerXRP {
		t.Fatalf("bob USD after redeem = %d", got)
	}
}

func TestIOUPaymentPathDry(t *testing.T) {
	s, a := fixture(t, "gateway", "alice", "bob")
	gw := a["gateway"]
	// Alice has no USD at all: payment must fail PATH_DRY.
	led := submitAndClose(s, Transaction{
		Type: TxPayment, Account: a["alice"], Destination: a["bob"], Amount: IOU("USD", gw, 10),
	})
	if code := led.Transactions[0].Result; code != TecPATH_DRY {
		t.Fatalf("expected PATH_DRY, got %s", code)
	}
	// Receiver without a trust line is also a dry path.
	submitAndClose(s, Transaction{Type: TxTrustSet, Account: a["alice"], LimitAmount: IOU("USD", gw, 1000)})
	submitAndClose(s, Transaction{Type: TxPayment, Account: gw, Destination: a["alice"], Amount: IOU("USD", gw, 100)})
	led = submitAndClose(s, Transaction{
		Type: TxPayment, Account: a["alice"], Destination: a["bob"], Amount: IOU("USD", gw, 10),
	})
	if code := led.Transactions[0].Result; code != TecPATH_DRY {
		t.Fatalf("expected PATH_DRY for missing receiver line, got %s", code)
	}
	// Exceeding the receiver's trust limit is dry too.
	submitAndClose(s, Transaction{Type: TxTrustSet, Account: a["bob"], LimitAmount: IOU("USD", gw, 5)})
	led = submitAndClose(s, Transaction{
		Type: TxPayment, Account: a["alice"], Destination: a["bob"], Amount: IOU("USD", gw, 10),
	})
	if code := led.Transactions[0].Result; code != TecPATH_DRY {
		t.Fatalf("expected PATH_DRY for limit overflow, got %s", code)
	}
}

func TestTrustSetValidation(t *testing.T) {
	s, a := fixture(t, "alice")
	led := submitAndClose(s,
		Transaction{Type: TxTrustSet, Account: a["alice"], LimitAmount: IOU("USD", a["alice"], 10)},
		Transaction{Type: TxTrustSet, Account: a["alice"], LimitAmount: Amount{Currency: "XRP", Value: 10}},
	)
	// tem-class codes (malformed transactions) never reach the ledger.
	if len(led.Transactions) != 0 {
		t.Fatalf("tem txs included: %d", len(led.Transactions))
	}
	if s.NotIncluded != 2 {
		t.Fatalf("NotIncluded = %d, want 2", s.NotIncluded)
	}
}

func TestSequenceIncrements(t *testing.T) {
	s, a := fixture(t, "alice", "bob")
	for i := 0; i < 3; i++ {
		submitAndClose(s, Transaction{
			Type: TxPayment, Account: a["alice"], Destination: a["bob"], Amount: XRP(1),
		})
	}
	if got := s.GetAccount(a["alice"]).Sequence; got != 3 {
		t.Fatalf("sequence = %d", got)
	}
}

func TestLedgerChainLinks(t *testing.T) {
	s, _ := fixture(t)
	l1 := s.CloseLedger()
	l2 := s.CloseLedger()
	if l2.ParentHash != l1.Hash {
		t.Fatal("ledger linkage broken")
	}
	if got := l2.CloseTime.Sub(l1.CloseTime); got != DefaultConfig(1000).CloseInterval {
		t.Fatalf("close interval %v", got)
	}
	if s.GetLedger(1) != l1 || s.GetLedger(3) != nil {
		t.Fatal("GetLedger bounds wrong")
	}
}

// TestXRPConservationProperty: XRP is only destroyed through fees; random
// payment storms must conserve balance + burned fees.
func TestXRPConservationProperty(t *testing.T) {
	f := func(moves []uint16) bool {
		s := New(DefaultConfig(1000))
		addrs := []Address{NewAddress("c1"), NewAddress("c2"), NewAddress("c3")}
		var initial int64
		for _, a := range addrs {
			s.Fund(a, 5000*DropsPerXRP)
			initial += 5000 * DropsPerXRP
		}
		for _, m := range moves {
			from := addrs[int(m)%3]
			to := addrs[int(m>>2)%3]
			if from == to {
				continue
			}
			s.Submit(Transaction{
				Type: TxPayment, Account: from, Destination: to,
				Amount: Drops(int64(m) * 1000),
			})
			if m%7 == 0 {
				s.CloseLedger()
			}
		}
		s.CloseLedger()
		var final int64
		for _, a := range addrs {
			final += s.GetAccount(a).Balance
		}
		return final+s.BurnedFees == initial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIOUConservationProperty: the issuer's total outstanding IOUs equal the
// sum of all holder balances after arbitrary payment attempts.
func TestIOUConservationProperty(t *testing.T) {
	f := func(moves []uint16) bool {
		s := New(DefaultConfig(1000))
		gw := NewAddress("gw")
		holders := []Address{NewAddress("h1"), NewAddress("h2"), NewAddress("h3")}
		s.Fund(gw, 10_000*DropsPerXRP)
		issued := int64(0)
		for _, h := range holders {
			s.Fund(h, 10_000*DropsPerXRP)
			s.Submit(Transaction{Type: TxTrustSet, Account: h, LimitAmount: IOU("EUR", gw, 1_000_000)})
		}
		s.CloseLedger()
		for i, h := range holders {
			amt := int64(100 * (i + 1))
			s.Submit(Transaction{Type: TxPayment, Account: gw, Destination: h, Amount: IOU("EUR", gw, amt)})
			issued += amt * DropsPerXRP
		}
		s.CloseLedger()
		for _, m := range moves {
			from := holders[int(m)%3]
			to := holders[int(m>>2)%3]
			if from == to {
				continue
			}
			s.Submit(Transaction{
				Type: TxPayment, Account: from, Destination: to,
				Amount: iouRaw("EUR", gw, int64(m)*10_000),
			})
		}
		// Some payments redeem with the issuer, reducing supply.
		s.Submit(Transaction{Type: TxPayment, Account: holders[0], Destination: gw, Amount: IOU("EUR", gw, 1)})
		led := s.CloseLedger()
		redeemed := int64(0)
		for _, tx := range led.Transactions {
			if tx.Destination == gw && tx.Result.Success() && !tx.Amount.IsNative() {
				redeemed += tx.Amount.Value
			}
		}
		var held int64
		for _, h := range holders {
			held += s.IOUBalance(h, gw, "EUR")
		}
		return held == issued-redeemed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

const xrpAlphabet = "rpshnaf39wBUDNEGHJKLM4PQRST7VWXYZ2bcdeCg65jkm8oFqi1tuvAxyz"

// iouRaw returns an issuer-specific amount from 6-decimal fixed point.
func iouRaw(currency string, issuer Address, raw int64) Amount {
	return Amount{Currency: currency, Issuer: issuer, Value: raw}
}

// bookOffers returns the resting offers selling gets for pays, best first.
func bookOffers(s *State, gets, pays AssetKey) []*Offer {
	if b := s.books[AssetPair{Gets: gets, Pays: pays}]; b != nil {
		return b.offers
	}
	return nil
}

// rate returns an exchange's counter units per base unit.
func rate(e Exchange) float64 {
	return float64(e.CounterValue) / float64(e.BaseValue)
}
