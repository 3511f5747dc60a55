package xrp

import "time"

// applyCrossCurrencyPayment bridges a payment through the order book: the
// sender spends SendMax-asset, the destination receives Amount-asset, and
// the conversion consumes resting offers that sell the target asset for the
// source asset. The whole Amount must be deliverable within SendMax or the
// payment fails with tecPATH_DRY — the "insufficient liquidity for
// specified payment path" failure dominating the paper's Payment errors.
//
// Planning runs before any mutation so a dry path leaves no partial state.
func (s *State) applyCrossCurrencyPayment(tx *Transaction, now time.Time) ResultCode {
	dest := s.accounts[tx.Destination]
	if dest == nil {
		return TecNO_DST
	}
	if dest.RequireDestTag && tx.DestinationTag == 0 {
		return TecDST_TAG_NEEDED
	}
	source := *tx.SendMax
	if source.Value <= 0 {
		return TemBAD_AMOUNT
	}
	// The destination must be able to hold the target asset.
	if !tx.Amount.IsNative() && tx.Destination != tx.Amount.Issuer {
		l := s.line(tx.Destination, tx.Amount.Issuer, tx.Amount.Currency)
		if l == nil || l.Balance+tx.Amount.Value > l.Limit {
			return TecPATH_DRY
		}
	}

	// Plan: walk the book selling Amount-asset for source-asset, best
	// price first, until the full Amount is covered.
	book := s.book(tx.Amount.Key(), source.Key())
	type fill struct {
		offer *Offer
		gets  int64 // target asset taken from the maker
		pays  int64 // source asset paid to the maker
	}
	var plan []fill
	needed := tx.Amount.Value
	budget := source.Value
	for _, offer := range book.offers {
		if needed <= 0 {
			break
		}
		if !offer.Expiration.IsZero() && !offer.Expiration.After(now) {
			continue
		}
		take := min(offer.TakerGets.Value, needed)
		cost := int64(float64(take) * offer.price())
		if cost <= 0 {
			cost = 1
		}
		if cost > budget {
			// Partial consumption capped by the remaining budget.
			take = int64(float64(budget) / offer.price())
			cost = budget
			if take <= 0 {
				break
			}
		}
		if !s.canFund(offer.Owner, offer.TakerGets.WithValue(take)) {
			continue // stale maker; skip during planning
		}
		plan = append(plan, fill{offer: offer, gets: take, pays: cost})
		needed -= take
		budget -= cost
	}
	if needed > 0 {
		return TecPATH_DRY
	}
	// The sender must be able to fund the total source spend.
	var totalPays int64
	for _, f := range plan {
		totalPays += f.pays
	}
	if !s.canFund(tx.Account, source.WithValue(totalPays)) {
		if source.IsNative() {
			return TecUNFUNDED_PAYMENT
		}
		return TecPATH_DRY
	}

	// Execute the plan.
	for _, f := range plan {
		if !s.deliver(tx.Account, f.offer.Owner, source.WithValue(f.pays)) {
			return TecPATH_DRY // should not happen after planning
		}
		if !s.deliver(f.offer.Owner, tx.Destination, tx.Amount.WithValue(f.gets)) {
			return TecPATH_DRY
		}
		s.exchanges = append(s.exchanges, Exchange{
			Time:          now,
			LedgerIndex:   int64(len(s.ledgers) + 1),
			Base:          f.offer.TakerGets.Key(),
			Counter:       f.offer.TakerPays.Key(),
			BaseValue:     f.gets,
			CounterValue:  f.pays,
			Maker:         f.offer.Owner,
			Taker:         tx.Account,
			MakerSequence: f.offer.Sequence,
		})
		f.offer.Filled = true
		f.offer.TakerGets.Value -= f.gets
		f.offer.TakerPays.Value -= f.pays
	}
	// Purge consumed offers.
	for _, f := range plan {
		if f.offer.TakerGets.Value <= 0 || f.offer.TakerPays.Value <= 0 {
			book.remove(f.offer)
			s.decOwner(f.offer.Owner)
		}
	}
	tx.DeliveredAmount = tx.Amount
	return TesSUCCESS
}
