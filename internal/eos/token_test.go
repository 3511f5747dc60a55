package eos

import (
	"testing"
	"testing/quick"

	"repro/internal/chain"
)

func newTokenFixture(t *testing.T) *TokenState {
	t.Helper()
	ts := NewTokenState()
	if err := ts.Create(TokenAccount, "EOS", 4, 1_000_000_0000); err != nil {
		t.Fatal(err)
	}
	if err := ts.Issue(TokenAccount, MustName("alice"), chain.EOSAsset(100_0000)); err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestTokenTransfer(t *testing.T) {
	ts := newTokenFixture(t)
	alice, bob := MustName("alice"), MustName("bob")
	if err := ts.Transfer(TokenAccount, alice, bob, chain.EOSAsset(30_0000)); err != nil {
		t.Fatal(err)
	}
	if got := ts.Balance(TokenAccount, alice, "EOS").Amount; got != 70_0000 {
		t.Fatalf("alice = %d", got)
	}
	if got := ts.Balance(TokenAccount, bob, "EOS").Amount; got != 30_0000 {
		t.Fatalf("bob = %d", got)
	}
}

func TestTokenOverdraw(t *testing.T) {
	ts := newTokenFixture(t)
	err := ts.Transfer(TokenAccount, MustName("alice"), MustName("bob"), chain.EOSAsset(200_0000))
	if err == nil {
		t.Fatal("overdraw succeeded")
	}
}

func TestTokenRejectsSelfAndNonPositive(t *testing.T) {
	ts := newTokenFixture(t)
	alice := MustName("alice")
	if err := ts.Transfer(TokenAccount, alice, alice, chain.EOSAsset(1)); err == nil {
		t.Fatal("self transfer succeeded")
	}
	if err := ts.Transfer(TokenAccount, alice, MustName("bob"), chain.EOSAsset(0)); err == nil {
		t.Fatal("zero transfer succeeded")
	}
	if err := ts.Transfer(TokenAccount, alice, MustName("bob"), chain.EOSAsset(-5)); err == nil {
		t.Fatal("negative transfer succeeded")
	}
}

func TestTokenMaxSupply(t *testing.T) {
	ts := newTokenFixture(t)
	err := ts.Issue(TokenAccount, MustName("alice"), chain.EOSAsset(1_000_000_0000))
	if err == nil {
		t.Fatal("issue beyond max supply succeeded")
	}
}

func TestTokenDuplicateCreate(t *testing.T) {
	ts := newTokenFixture(t)
	if err := ts.Create(TokenAccount, "EOS", 4, 1); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	// Same symbol under a different contract is a different token (the IOU
	// ambiguity the paper highlights for XRP exists on EOS too).
	if err := ts.Create(EIDOSContract, "EOS", 4, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestTokenJournalRollback(t *testing.T) {
	ts := newTokenFixture(t)
	alice, bob := MustName("alice"), MustName("bob")
	ts.Begin()
	if err := ts.Transfer(TokenAccount, alice, bob, chain.EOSAsset(10_0000)); err != nil {
		t.Fatal(err)
	}
	if err := ts.Issue(TokenAccount, bob, chain.EOSAsset(5_0000)); err != nil {
		t.Fatal(err)
	}
	ts.Rollback()
	if got := ts.Balance(TokenAccount, alice, "EOS").Amount; got != 100_0000 {
		t.Fatalf("alice after rollback = %d", got)
	}
	if got := ts.Balance(TokenAccount, bob, "EOS").Amount; got != 0 {
		t.Fatalf("bob after rollback = %d", got)
	}
	if got := ts.supply[supplyKey{TokenAccount, "EOS"}]; got != 100_0000 {
		t.Fatalf("supply after rollback = %d", got)
	}
}

func TestTokenJournalCommit(t *testing.T) {
	ts := newTokenFixture(t)
	alice, bob := MustName("alice"), MustName("bob")
	ts.Begin()
	if err := ts.Transfer(TokenAccount, alice, bob, chain.EOSAsset(10_0000)); err != nil {
		t.Fatal(err)
	}
	ts.Commit()
	if got := ts.Balance(TokenAccount, bob, "EOS").Amount; got != 10_0000 {
		t.Fatalf("bob after commit = %d", got)
	}
}

// TestTokenConservationProperty checks that arbitrary transfer sequences
// conserve total supply — the invariant that makes "balance change" a valid
// wash-trading signal in §4.1.
func TestTokenConservationProperty(t *testing.T) {
	holders := []Name{MustName("h1"), MustName("h2"), MustName("h3"), MustName("h4")}
	f := func(moves []uint16) bool {
		ts := NewTokenState()
		if err := ts.Create(TokenAccount, "EOS", 4, 1_000_000); err != nil {
			return false
		}
		if err := ts.Issue(TokenAccount, holders[0], chain.EOSAsset(500_000)); err != nil {
			return false
		}
		for _, m := range moves {
			from := holders[int(m)%len(holders)]
			to := holders[int(m>>2)%len(holders)]
			amt := int64(m%997) + 1
			_ = ts.Transfer(TokenAccount, from, to, chain.EOSAsset(amt)) // failures fine
		}
		return totalHeld(ts) == 500_000 &&
			ts.supply[supplyKey{TokenAccount, "EOS"}] == 500_000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// totalHeld sums every EOS balance: transfers conserve it.
func totalHeld(ts *TokenState) int64 {
	var total int64
	for k, v := range ts.balances {
		if k.Contract == TokenAccount && k.Symbol == "EOS" {
			total += v
		}
	}
	return total
}
