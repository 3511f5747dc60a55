package xrp

import "testing"

// benchState funds two accounts and a gateway outside the timer.
func benchState(b *testing.B) (*State, Address, Address, Address) {
	b.Helper()
	s := New(DefaultConfig(1000))
	a1, a2, gw := NewAddress("b1"), NewAddress("b2"), NewAddress("bgw")
	for _, a := range []Address{a1, a2, gw} {
		s.Fund(a, 1<<40)
	}
	return s, a1, a2, gw
}

// BenchmarkXRPPaymentLedger measures ledger close with 75 payments — the
// dataset's average per-ledger transaction count.
func BenchmarkXRPPaymentLedger(b *testing.B) {
	s, a1, a2, _ := benchState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 75; j++ {
			from, to := a1, a2
			if j%2 == 1 {
				from, to = to, from
			}
			s.Submit(Transaction{Type: TxPayment, Account: from, Destination: to, Amount: Drops(1000)})
		}
		led := s.CloseLedger()
		if len(led.Transactions) != 75 {
			b.Fatalf("ledger carried %d txs", len(led.Transactions))
		}
	}
}

// BenchmarkIOUPayment measures the trust-line rippling path.
func BenchmarkIOUPayment(b *testing.B) {
	s, a1, a2, gw := benchState(b)
	s.Submit(Transaction{Type: TxTrustSet, Account: a1, LimitAmount: IOU("USD", gw, 1<<30)})
	s.Submit(Transaction{Type: TxTrustSet, Account: a2, LimitAmount: IOU("USD", gw, 1<<30)})
	s.CloseLedger()
	s.Submit(Transaction{Type: TxPayment, Account: gw, Destination: a1, Amount: IOU("USD", gw, 1<<20)})
	s.CloseLedger()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to := a1, a2
		if i%2 == 1 {
			from, to = to, from
		}
		s.Submit(Transaction{Type: TxPayment, Account: from, Destination: to, Amount: iouRaw("USD", gw, 1000)})
		if i%50 == 49 {
			s.CloseLedger()
		}
	}
	s.CloseLedger()
}

// BenchmarkOfferCrossing measures a full maker/taker cross per iteration.
// Funding is sized so even multi-million-iteration runs never drain either
// side (the maker sells tiny 1-USD clips against a deep XRP balance).
func BenchmarkOfferCrossing(b *testing.B) {
	s, maker, taker, gw := benchState(b)
	s.Fund(maker, 1<<55)
	s.Fund(taker, 1<<55)
	s.Submit(Transaction{Type: TxTrustSet, Account: maker, LimitAmount: iouRaw("USD", gw, 1<<60)})
	s.Submit(Transaction{Type: TxTrustSet, Account: taker, LimitAmount: iouRaw("USD", gw, 1<<60)})
	s.CloseLedger()
	s.Submit(Transaction{Type: TxPayment, Account: gw, Destination: maker, Amount: iouRaw("USD", gw, 1<<58)})
	s.CloseLedger()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(Transaction{Type: TxOfferCreate, Account: maker,
			TakerGets: IOU("USD", gw, 1), TakerPays: XRP(4)})
		s.Submit(Transaction{Type: TxOfferCreate, Account: taker,
			TakerGets: XRP(5), TakerPays: IOU("USD", gw, 1)})
		if i%20 == 19 {
			led := s.CloseLedger()
			for _, tx := range led.Transactions {
				if !tx.Result.Success() {
					b.Fatalf("cross failed: %s", tx.Result)
				}
			}
		}
	}
	s.CloseLedger()
}

// BenchmarkBookInsert measures resting-offer insertion into a deep book —
// the Huobi spam pattern that accumulated tens of thousands of offers.
func BenchmarkBookInsert(b *testing.B) {
	s, maker, _, gw := benchState(b)
	s.Submit(Transaction{Type: TxTrustSet, Account: maker, LimitAmount: IOU("CNY", gw, 1<<40)})
	s.CloseLedger()
	s.Submit(Transaction{Type: TxPayment, Account: gw, Destination: maker, Amount: iouRaw("CNY", gw, 1<<50)})
	s.CloseLedger()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(Transaction{Type: TxOfferCreate, Account: maker,
			TakerGets: iouRaw("CNY", gw, int64(i%997)+1),
			TakerPays: XRP(int64(i%89_000) + 1_000)}) // off-market asks
		if i%100 == 99 {
			s.CloseLedger()
		}
	}
	s.CloseLedger()
}
