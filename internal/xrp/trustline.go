package xrp

// TrustLine records that holder trusts issuer for up to Limit of Currency,
// and how much of the issuer's IOU the holder currently has. The paper's
// §2.4 explains the IOU mechanism: paying "10 BTC" on the XRP ledger merely
// moves an I-owe-you whose worth depends entirely on the issuer.
type TrustLine struct {
	Holder   Address
	Issuer   Address
	Currency string
	Balance  int64 // 6-decimal fixed point IOU the holder possesses
	Limit    int64 // maximum Balance the holder accepts
}

type lineKey struct {
	Holder   Address
	Issuer   Address
	Currency string
}

// line returns the trust line, or nil.
func (s *State) line(holder, issuer Address, currency string) *TrustLine {
	return s.lines[lineKey{holder, issuer, currency}]
}

// IOUBalance returns how much of issuer's currency the holder has.
func (s *State) IOUBalance(holder, issuer Address, currency string) int64 {
	if l := s.line(holder, issuer, currency); l != nil {
		return l.Balance
	}
	return 0
}

// applyTrustSet creates or updates a trust line from the sender to the
// issuer named in LimitAmount.
func (s *State) applyTrustSet(tx *Transaction, acct *Account) ResultCode {
	la := tx.LimitAmount
	if la.Issuer == "" || la.Currency == XRPCurrency || la.Value < 0 {
		return TemBAD_AMOUNT
	}
	if la.Issuer == tx.Account {
		return TemBAD_ACCOUNT // cannot trust yourself
	}
	k := lineKey{tx.Account, la.Issuer, la.Currency}
	l := s.lines[k]
	if l == nil {
		// A new ledger object costs one owner reserve.
		if s.Spendable(acct) < 0 { // Spendable already clamps; check raw
			return TecUNFUNDED_PAYMENT
		}
		if acct.Balance < s.reserve(acct)+ownerReserve {
			return TecUNFUNDED_PAYMENT
		}
		l = &TrustLine{Holder: tx.Account, Issuer: la.Issuer, Currency: la.Currency}
		s.lines[k] = l
		acct.OwnerCount++
	}
	l.Limit = la.Value
	return TesSUCCESS
}

// creditIOU gives holder amount of issuer's currency, respecting the trust
// limit. The issuer itself needs no line.
func (s *State) creditIOU(holder Address, a Amount) ResultCode {
	if holder == a.Issuer {
		return TesSUCCESS // IOU returning to its issuer disappears
	}
	l := s.line(holder, a.Issuer, a.Currency)
	if l == nil {
		return TecNO_LINE
	}
	if l.Balance+a.Value > l.Limit {
		return TecPATH_DRY
	}
	l.Balance += a.Value
	return TesSUCCESS
}

// debitIOU takes amount of issuer's currency from holder. Issuers create
// value out of thin air (that is the IOU model); everyone else needs
// sufficient line balance.
func (s *State) debitIOU(holder Address, a Amount) ResultCode {
	if holder == a.Issuer {
		return TesSUCCESS
	}
	l := s.line(holder, a.Issuer, a.Currency)
	if l == nil {
		return TecNO_LINE
	}
	if l.Balance < a.Value {
		return TecPATH_DRY
	}
	l.Balance -= a.Value
	return TesSUCCESS
}

// canDebitIOU reports whether debitIOU would succeed without mutating.
func (s *State) canDebitIOU(holder Address, a Amount) bool {
	if holder == a.Issuer {
		return true
	}
	l := s.line(holder, a.Issuer, a.Currency)
	return l != nil && l.Balance >= a.Value
}

// moveIOU transfers an IOU from one holder to another through its issuer:
// issue (from == issuer), redeem (to == issuer), or ripple (both hold
// lines). Any missing liquidity surfaces as PATH_DRY — the most common
// Payment failure in the dataset.
func (s *State) moveIOU(from, to Address, a Amount) ResultCode {
	// Validate the debit side first without mutating.
	if !s.canDebitIOU(from, a) {
		if s.line(from, a.Issuer, a.Currency) == nil && from != a.Issuer {
			return TecPATH_DRY
		}
		return TecPATH_DRY
	}
	// Validate the credit side.
	if to != a.Issuer {
		l := s.line(to, a.Issuer, a.Currency)
		if l == nil {
			return TecPATH_DRY
		}
		if l.Balance+a.Value > l.Limit {
			return TecPATH_DRY
		}
	}
	if code := s.debitIOU(from, a); !code.Success() {
		return code
	}
	return s.creditIOU(to, a)
}
