package xrp

import "testing"

func TestEscrowLifecycle(t *testing.T) {
	s, a := fixture(t, "ripple", "market")
	cfg := DefaultConfig(1000)
	finish := s.Now().Add(2 * cfg.CloseInterval)

	led := submitAndClose(s, Transaction{
		Type: TxEscrowCreate, Account: a["ripple"], Destination: a["market"],
		Amount: XRP(1000), FinishAfter: finish,
	})
	tx := led.Transactions[0]
	if !tx.Result.Success() {
		t.Fatalf("escrow create: %s", tx.Result)
	}
	if got := s.GetAccount(a["ripple"]).Balance; got != 9000*DropsPerXRP-10 {
		t.Fatalf("funds not locked: %d", got)
	}
	// Finishing too early is refused.
	led = submitAndClose(s, Transaction{
		Type: TxEscrowFinish, Account: a["market"], Owner: a["ripple"], OfferSequence: tx.Sequence,
	})
	if code := led.Transactions[0].Result; code != TecNO_PERMISSION {
		t.Fatalf("early finish: %s", code)
	}
	s.CloseLedger() // time passes
	led = submitAndClose(s, Transaction{
		Type: TxEscrowFinish, Account: a["market"], Owner: a["ripple"], OfferSequence: tx.Sequence,
	})
	if code := led.Transactions[0].Result; !code.Success() {
		t.Fatalf("finish: %s", code)
	}
	if got := s.GetAccount(a["market"]).Balance; got != 11_000*DropsPerXRP-2*10 {
		t.Fatalf("market balance = %d", got)
	}
	// The entry is gone.
	if s.escrows[escrowKey{a["ripple"], tx.Sequence}] != nil {
		t.Fatal("escrow entry persisted")
	}
}

func TestEscrowUnfunded(t *testing.T) {
	s, a := fixture(t, "poor")
	led := submitAndClose(s, Transaction{
		Type: TxEscrowCreate, Account: a["poor"], Destination: NewAddress("x"),
		Amount: XRP(50_000),
	})
	if code := led.Transactions[0].Result; code != TecUNFUNDED_PAYMENT {
		t.Fatalf("overdrawn escrow: %s", code)
	}
}
