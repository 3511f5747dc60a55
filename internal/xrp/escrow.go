package xrp

import "time"

// Escrow is a time-locked XRP hold. Ripple's treasury locks one billion XRP
// per month this way and re-escrows what it does not use — the mechanics
// behind the "Ripple 10 % of XRP volume" slice of the paper's Figure 12.
type Escrow struct {
	Owner       Address
	Sequence    uint32 // sequence of the creating transaction
	Destination Address
	Amount      int64 // drops
	FinishAfter time.Time
}

type escrowKey struct {
	Owner    Address
	Sequence uint32
}

func (s *State) applyEscrowCreate(tx *Transaction, acct *Account) ResultCode {
	if !tx.Amount.IsNative() || tx.Amount.Value <= 0 {
		return TemBAD_AMOUNT
	}
	if tx.Destination == "" {
		return TemBAD_ACCOUNT
	}
	if s.Spendable(acct) < tx.Amount.Value {
		return TecUNFUNDED_PAYMENT
	}
	acct.Balance -= tx.Amount.Value
	acct.OwnerCount++
	s.escrows[escrowKey{tx.Account, tx.Sequence}] = &Escrow{
		Owner:       tx.Account,
		Sequence:    tx.Sequence,
		Destination: tx.Destination,
		Amount:      tx.Amount.Value,
		FinishAfter: tx.FinishAfter,
	}
	return TesSUCCESS
}

func (s *State) applyEscrowFinish(tx *Transaction, now time.Time) ResultCode {
	k := escrowKey{tx.Owner, tx.OfferSequence}
	e := s.escrows[k]
	if e == nil {
		return TecNO_ENTRY
	}
	if !e.FinishAfter.IsZero() && now.Before(e.FinishAfter) {
		return TecNO_PERMISSION
	}
	dest := s.accounts[e.Destination]
	if dest == nil {
		// Escrowed funds activate the destination if needed.
		dest = &Account{Address: e.Destination, Parent: e.Owner, Activated: now}
		s.accounts[e.Destination] = dest
	}
	dest.Balance += e.Amount
	s.decOwner(e.Owner)
	delete(s.escrows, k)
	return TesSUCCESS
}
