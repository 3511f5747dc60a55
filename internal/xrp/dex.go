package xrp

import (
	"sort"
	"time"
)

// AssetPair identifies an order book: offers selling Gets in exchange for
// Pays.
type AssetPair struct {
	Gets AssetKey
	Pays AssetKey
}

// Offer is a resting order on the DEX. TakerGets/TakerPays shrink as the
// offer fills. The paper's headline DEX statistic: only 0.2 % of
// successfully created offers are ever fulfilled to any extent.
type Offer struct {
	Owner      Address
	Sequence   uint32
	TakerGets  Amount // remaining amount the owner still offers
	TakerPays  Amount // remaining amount the owner still wants
	Expiration time.Time
	// Quality is the demanded TakerPays per TakerGets, fixed at placement.
	// rippled sorts and crosses by this original quality, so partial-fill
	// rounding can never reorder a book.
	Quality float64
	// Filled reports whether any part of the offer ever executed.
	Filled bool
}

// price returns the owner's demanded TakerPays per unit TakerGets (the
// placement-time quality).
func (o *Offer) price() float64 { return o.Quality }

type orderBook struct {
	offers []*Offer // sorted by ascending price (best for takers first)
}

func (b *orderBook) insert(o *Offer) {
	i := sort.Search(len(b.offers), func(i int) bool {
		pi, po := b.offers[i].price(), o.price()
		if pi != po {
			return pi > po
		}
		return b.offers[i].Sequence > o.Sequence // time priority on ties
	})
	b.offers = append(b.offers, nil)
	copy(b.offers[i+1:], b.offers[i:])
	b.offers[i] = o
}

func (b *orderBook) remove(o *Offer) {
	for i, x := range b.offers {
		if x == o {
			b.offers = append(b.offers[:i], b.offers[i+1:]...)
			return
		}
	}
}

// Exchange records one executed DEX fill. The explorer's exchange_rates API
// (used by the paper to value IOUs, Figure 11) aggregates these.
type Exchange struct {
	Time        time.Time
	LedgerIndex int64
	// Base is the asset the resting (maker) offer sold; Counter is what it
	// received. Rate() is Counter per Base.
	Base, Counter           AssetKey
	BaseValue, CounterValue int64 // 6-decimal fixed point
	Maker, Taker            Address
	// MakerSequence identifies the maker's offer so analysis can attribute
	// later fills to the OfferCreate that placed it.
	MakerSequence uint32
}

// Rate returns counter units per base unit.
func (e Exchange) Rate() float64 {
	if e.BaseValue == 0 {
		return 0
	}
	return float64(e.CounterValue) / float64(e.BaseValue)
}

// book returns (creating if needed) the book selling gets for pays.
func (s *State) book(gets, pays AssetKey) *orderBook {
	k := AssetPair{Gets: gets, Pays: pays}
	b := s.books[k]
	if b == nil {
		b = &orderBook{}
		s.books[k] = b
	}
	return b
}

// BookOffers returns the resting offers selling gets for pays, best first.
func (s *State) BookOffers(gets, pays AssetKey) []*Offer {
	return s.book(gets, pays).offers
}

// FindOffer locates a resting offer by owner and sequence.
func (s *State) FindOffer(owner Address, seq uint32) *Offer {
	for _, b := range s.books {
		for _, o := range b.offers {
			if o.Owner == owner && o.Sequence == seq {
				return o
			}
		}
	}
	return nil
}

// canFund reports whether owner could deliver amount right now.
func (s *State) canFund(owner Address, a Amount) bool {
	acct := s.accounts[owner]
	if acct == nil {
		return false
	}
	if a.IsNative() {
		return s.Spendable(acct) >= a.Value
	}
	return owner == a.Issuer || s.IOUBalance(owner, a.Issuer, a.Currency) >= a.Value
}

// deliver moves amount from one account to another as part of a DEX fill.
// IOU receivers get an implicit trust line sized to the delivery — a
// simplification of rippled's offer-crossing line creation.
func (s *State) deliver(from, to Address, a Amount) bool {
	if a.Value <= 0 {
		return false
	}
	if a.IsNative() {
		fa, ta := s.accounts[from], s.accounts[to]
		if fa == nil || ta == nil || s.Spendable(fa) < a.Value {
			return false
		}
		fa.Balance -= a.Value
		ta.Balance += a.Value
		return true
	}
	if !s.canDebitIOU(from, a) {
		return false
	}
	if to != a.Issuer {
		k := lineKey{to, a.Issuer, a.Currency}
		l := s.lines[k]
		if l == nil {
			l = &TrustLine{Holder: to, Issuer: a.Issuer, Currency: a.Currency}
			s.lines[k] = l
			if acct := s.accounts[to]; acct != nil {
				acct.OwnerCount++
			}
		}
		if l.Balance+a.Value > l.Limit {
			l.Limit = l.Balance + a.Value // implicit limit growth on fills
		}
	}
	if code := s.debitIOU(from, a); !code.Success() {
		return false
	}
	return s.creditIOU(to, a).Success()
}

// applyOfferCreate validates, crosses and possibly rests a new offer.
func (s *State) applyOfferCreate(tx *Transaction, acct *Account, now time.Time) ResultCode {
	if tx.TakerGets.Value <= 0 || tx.TakerPays.Value <= 0 {
		return TemBAD_AMOUNT
	}
	if tx.TakerGets.SameAsset(tx.TakerPays) {
		return TemBAD_AMOUNT
	}
	if !tx.Expiration.IsZero() && !tx.Expiration.After(now) {
		return TecEXPIRED
	}
	if !s.canFund(tx.Account, tx.TakerGets) {
		return TecUNFUNDED_OFFER
	}

	remainGets := tx.TakerGets // what we still offer
	remainPays := tx.TakerPays // what we still want
	counterBook := s.book(remainPays.Key(), remainGets.Key())

	for remainPays.Value > 0 && len(counterBook.offers) > 0 {
		counter := counterBook.offers[0]
		// Purge stale makers: expired or no longer funded.
		if (!counter.Expiration.IsZero() && !counter.Expiration.After(now)) ||
			!s.canFund(counter.Owner, counter.TakerGets.WithValue(min(counter.TakerGets.Value, 1))) {
			counterBook.remove(counter)
			s.decOwner(counter.Owner)
			continue
		}
		// Counter demands counter.TakerPays (our Gets asset) per
		// counter.TakerGets (our Pays asset). Cross only while its price
		// does not exceed what we are willing to pay.
		ourPrice := float64(remainGets.Value) / float64(remainPays.Value)
		if counter.price() > ourPrice {
			break
		}
		fillPays := min(counter.TakerGets.Value, remainPays.Value)
		fillGets := int64(float64(fillPays) * counter.price())
		if fillGets <= 0 {
			break
		}
		if fillGets > remainGets.Value {
			fillGets = remainGets.Value
			fillPays = int64(float64(fillGets) / counter.price())
			if fillPays <= 0 {
				break
			}
		}
		// Maker can only deliver what it can fund right now.
		if !s.canFund(counter.Owner, counter.TakerGets.WithValue(fillPays)) {
			counterBook.remove(counter)
			s.decOwner(counter.Owner)
			continue
		}
		if !s.canFund(tx.Account, remainGets.WithValue(fillGets)) {
			break // taker ran out mid-cross; rest whatever remains
		}
		if !s.deliver(counter.Owner, tx.Account, counter.TakerGets.WithValue(fillPays)) {
			counterBook.remove(counter)
			s.decOwner(counter.Owner)
			continue
		}
		if !s.deliver(tx.Account, counter.Owner, remainGets.WithValue(fillGets)) {
			// Roll the maker leg back to keep books balanced.
			s.deliver(tx.Account, counter.Owner, counter.TakerGets.WithValue(fillPays))
			break
		}

		s.exchanges = append(s.exchanges, Exchange{
			Time:          now,
			LedgerIndex:   int64(len(s.ledgers) + 1),
			Base:          counter.TakerGets.Key(),
			Counter:       counter.TakerPays.Key(),
			BaseValue:     fillPays,
			CounterValue:  fillGets,
			Maker:         counter.Owner,
			Taker:         tx.Account,
			MakerSequence: counter.Sequence,
		})
		counter.Filled = true
		tx.Executed = true

		counter.TakerGets.Value -= fillPays
		counter.TakerPays.Value -= fillGets
		remainPays.Value -= fillPays
		remainGets.Value -= fillGets
		if counter.TakerGets.Value <= 0 || counter.TakerPays.Value <= 0 {
			counterBook.remove(counter)
			s.decOwner(counter.Owner)
		}
	}

	if remainGets.Value > 0 && remainPays.Value > 0 {
		o := &Offer{
			Owner:      tx.Account,
			Sequence:   tx.Sequence,
			TakerGets:  remainGets,
			TakerPays:  remainPays,
			Expiration: tx.Expiration,
			Quality:    float64(tx.TakerPays.Value) / float64(tx.TakerGets.Value),
			Filled:     tx.Executed,
		}
		s.book(remainGets.Key(), remainPays.Key()).insert(o)
		acct.OwnerCount++
		tx.RestingSequence = tx.Sequence
	}
	return TesSUCCESS
}

// applyOfferCancel removes the referenced offer. Cancelling a missing offer
// still succeeds, as on main net.
func (s *State) applyOfferCancel(tx *Transaction, acct *Account) ResultCode {
	if o := s.FindOffer(tx.Account, tx.OfferSequence); o != nil {
		s.book(o.TakerGets.Key(), o.TakerPays.Key()).remove(o)
		if acct.OwnerCount > 0 {
			acct.OwnerCount--
		}
	}
	return TesSUCCESS
}

func (s *State) decOwner(addr Address) {
	if a := s.accounts[addr]; a != nil && a.OwnerCount > 0 {
		a.OwnerCount--
	}
}
