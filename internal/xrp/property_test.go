package xrp

import (
	"testing"
	"testing/quick"
)

// TestOrderBookInvariantsProperty drives random offer/cancel/payment
// sequences and checks structural invariants after every ledger close:
// books stay price-sorted, balances never go negative, and owner counts
// never underflow.
func TestOrderBookInvariantsProperty(t *testing.T) {
	gw := NewAddress("prop-gw")
	traders := []Address{NewAddress("pt1"), NewAddress("pt2"), NewAddress("pt3")}

	check := func(ops []uint32) bool {
		s := New(DefaultConfig(1000))
		s.Fund(gw, 1<<45)
		for _, tr := range traders {
			s.Fund(tr, 1<<45)
			s.Submit(Transaction{Type: TxTrustSet, Account: tr, LimitAmount: IOU("USD", gw, 1<<30)})
		}
		s.CloseLedger()
		for _, tr := range traders {
			s.Submit(Transaction{Type: TxPayment, Account: gw, Destination: tr, Amount: IOU("USD", gw, 1<<20)})
		}
		s.CloseLedger()

		for _, op := range ops {
			trader := traders[op%3]
			amount := int64(op%997) + 1
			price := int64(op%13) + 1
			switch (op >> 4) % 4 {
			case 0: // sell USD for XRP
				s.Submit(Transaction{Type: TxOfferCreate, Account: trader,
					TakerGets: IOU("USD", gw, amount), TakerPays: XRP(amount * price)})
			case 1: // buy USD with XRP
				s.Submit(Transaction{Type: TxOfferCreate, Account: trader,
					TakerGets: XRP(amount * price), TakerPays: IOU("USD", gw, amount)})
			case 2: // cancel something (maybe nonexistent)
				s.Submit(Transaction{Type: TxOfferCancel, Account: trader, OfferSequence: op % 50})
			default: // IOU payment
				s.Submit(Transaction{Type: TxPayment, Account: trader,
					Destination: traders[(op+1)%3], Amount: iouRaw("USD", gw, amount)})
			}
			if op%7 == 0 {
				s.CloseLedger()
			}
		}
		s.CloseLedger()

		// Invariant 1: every book is sorted by ascending price.
		for _, book := range s.books {
			for i := 1; i < len(book.offers); i++ {
				if book.offers[i-1].price() > book.offers[i].price() {
					return false
				}
			}
			// Invariant 2: no empty offers rest on a book.
			for _, o := range book.offers {
				if o.TakerGets.Value <= 0 || o.TakerPays.Value <= 0 {
					return false
				}
			}
		}
		// Invariant 3: balances and owner counts never go negative.
		for _, tr := range append(traders, gw) {
			acct := s.GetAccount(tr)
			if acct.Balance < 0 || acct.OwnerCount < 0 {
				return false
			}
		}
		for _, tr := range traders {
			if s.IOUBalance(tr, gw, "USD") < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCrossingConservesAssetsProperty verifies that DEX fills conserve both
// legs: XRP only moves between the two parties (minus fees) and the IOU
// total outstanding never changes.
func TestCrossingConservesAssetsProperty(t *testing.T) {
	check := func(fills []uint16) bool {
		s := New(DefaultConfig(1000))
		gw := NewAddress("cons-gw")
		maker := NewAddress("cons-maker")
		taker := NewAddress("cons-taker")
		s.Fund(gw, 1<<40)
		s.Fund(maker, 1<<40)
		s.Fund(taker, 1<<40)
		s.Submit(Transaction{Type: TxTrustSet, Account: maker, LimitAmount: IOU("USD", gw, 1<<30)})
		s.Submit(Transaction{Type: TxTrustSet, Account: taker, LimitAmount: IOU("USD", gw, 1<<30)})
		s.CloseLedger()
		s.Submit(Transaction{Type: TxPayment, Account: gw, Destination: maker, Amount: IOU("USD", gw, 1<<20)})
		s.CloseLedger()

		issued := s.IOUBalance(maker, gw, "USD") + s.IOUBalance(taker, gw, "USD")
		xrpBefore := s.GetAccount(maker).Balance + s.GetAccount(taker).Balance
		feesBefore := s.BurnedFees // setup fees (incl. the issuer's) are out of scope

		for _, f := range fills {
			units := int64(f%200) + 1
			s.Submit(Transaction{Type: TxOfferCreate, Account: maker,
				TakerGets: IOU("USD", gw, units), TakerPays: XRP(units * 5)})
			s.Submit(Transaction{Type: TxOfferCreate, Account: taker,
				TakerGets: XRP(units * 5), TakerPays: IOU("USD", gw, units)})
			s.CloseLedger()
		}

		iouAfter := s.IOUBalance(maker, gw, "USD") + s.IOUBalance(taker, gw, "USD")
		xrpAfter := s.GetAccount(maker).Balance + s.GetAccount(taker).Balance
		// IOUs are conserved exactly; XRP shrinks only by burned fees.
		return iouAfter == issued && xrpBefore-xrpAfter == s.BurnedFees-feesBefore
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
