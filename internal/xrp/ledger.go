package xrp

import (
	"time"

	"repro/internal/chain"
)

// Config parameterizes the simulated XRP Ledger. TimeScale dilates the
// ~3.9-second close interval like the other chain simulators.
type Config struct {
	Start         time.Time
	CloseInterval time.Duration
}

// baseFee is the reference transaction cost in drops. baseReserve and
// ownerReserve are the account reserves in drops (20 XRP and 5 XRP at the
// paper's observation time).
const (
	baseFee      = 10
	baseReserve  = 20 * DropsPerXRP
	ownerReserve = 5 * DropsPerXRP
)

// DefaultConfig returns main-net-shaped parameters at the given time scale.
func DefaultConfig(timeScale int64) Config {
	if timeScale < 1 {
		timeScale = 1
	}
	return Config{
		Start:         chain.ObservationStart,
		CloseInterval: time.Duration(timeScale) * 3900 * time.Millisecond,
	}
}

// Account is one ledger account entry.
type Account struct {
	Address   Address
	Balance   int64 // drops
	Sequence  uint32
	Parent    Address // account whose payment activated this one
	Activated time.Time
	// OwnerCount tracks reserve-charging objects (trust lines, offers,
	// escrows).
	OwnerCount int
	// RequireDestTag mirrors the asfRequireDest flag large exchanges set.
	RequireDestTag bool
}

// State is the mutable XRP Ledger, accumulating closed ledger versions.
type State struct {
	clock    *chain.Clock
	accounts map[Address]*Account
	lines    map[lineKey]*TrustLine
	books    map[AssetPair]*orderBook
	escrows  map[escrowKey]*Escrow
	ledgers  []*Ledger
	pending  []*Transaction

	exchanges []Exchange

	// BurnedFees accumulates destroyed fee drops.
	BurnedFees int64
	// NotIncluded counts malformed transactions that never reached a ledger.
	NotIncluded int64
}

// New creates an empty ledger chain from a DefaultConfig; Genesis accounts
// are created with Fund.
func New(cfg Config) *State {
	return &State{
		clock:    chain.NewClock(cfg.Start, cfg.CloseInterval),
		accounts: make(map[Address]*Account),
		lines:    make(map[lineKey]*TrustLine),
		books:    make(map[AssetPair]*orderBook),
		escrows:  make(map[escrowKey]*Escrow),
	}
}

// Fund creates (or tops up) an account with drops outside the transaction
// flow — the simulator's stand-in for pre-window history.
func (s *State) Fund(addr Address, drops int64) *Account {
	a := s.accounts[addr]
	if a == nil {
		a = &Account{Address: addr, Activated: s.clock.Now()}
		s.accounts[addr] = a
	}
	a.Balance += drops
	return a
}

// GetAccount returns the account entry, or nil.
func (s *State) GetAccount(addr Address) *Account { return s.accounts[addr] }

// Now returns the simulated time.
func (s *State) Now() time.Time { return s.clock.Now() }

// HeadIndex returns the latest closed ledger index (0 when none).
func (s *State) HeadIndex() int64 { return int64(len(s.ledgers)) }

// GetLedger returns ledger index i (1-based), or nil.
func (s *State) GetLedger(i int64) *Ledger {
	if i < 1 || i > int64(len(s.ledgers)) {
		return nil
	}
	return s.ledgers[i-1]
}

// Exchanges returns every DEX trade executed so far; the explorer's
// exchange-rates API and the paper's Figure 11 derive from these.
func (s *State) Exchanges() []Exchange { return s.exchanges }

// reserve returns the drops an account cannot spend.
func (s *State) reserve(a *Account) int64 {
	return baseReserve + int64(a.OwnerCount)*ownerReserve
}

// Spendable returns the drops available above the reserve.
func (s *State) Spendable(a *Account) int64 {
	sp := a.Balance - s.reserve(a)
	if sp < 0 {
		return 0
	}
	return sp
}

// Submit queues a transaction for the next ledger close. Fee and sequence
// defaults are filled in from the account when zero.
func (s *State) Submit(tx Transaction) {
	s.pending = append(s.pending, &tx)
}

// CloseLedger applies every pending transaction, closes a ledger version and
// advances the clock. Transactions with tec-class failures are recorded in
// the ledger (fee burned, nothing else) exactly as on main net.
func (s *State) CloseLedger() *Ledger {
	index := int64(len(s.ledgers) + 1)
	now := s.clock.Now()
	led := &Ledger{Index: index, CloseTime: now}
	if len(s.ledgers) > 0 {
		led.ParentHash = s.ledgers[len(s.ledgers)-1].Hash
	}
	for _, tx := range s.pending {
		code := s.apply(tx, now)
		tx.Result = code
		if !code.Included() {
			s.NotIncluded++
			continue
		}
		tx.ID = chain.HashOf("xrp-tx", uint64(index), len(led.Transactions),
			string(tx.Account), string(tx.Type), uint64(tx.Sequence))
		led.Transactions = append(led.Transactions, *tx)
	}
	s.pending = s.pending[:0]
	led.Hash = chain.HashOf("xrp-ledger", uint64(index), now.UnixNano(), len(led.Transactions))
	s.ledgers = append(s.ledgers, led)
	s.clock.Tick()
	return led
}

// apply executes one transaction and returns its engine result.
func (s *State) apply(tx *Transaction, now time.Time) ResultCode {
	acct := s.accounts[tx.Account]
	if acct == nil {
		return TerNO_ACCOUNT
	}
	if tx.Fee <= 0 {
		tx.Fee = baseFee
	}
	// The fee is burned no matter what happens next.
	fee := tx.Fee
	if fee > acct.Balance {
		fee = acct.Balance
	}
	acct.Balance -= fee
	s.BurnedFees += fee
	acct.Sequence++
	if tx.Sequence == 0 {
		tx.Sequence = acct.Sequence
	}

	switch tx.Type {
	case TxPayment:
		return s.applyPayment(tx, acct, now)
	case TxOfferCreate:
		return s.applyOfferCreate(tx, acct, now)
	case TxOfferCancel:
		return s.applyOfferCancel(tx, acct)
	case TxTrustSet:
		return s.applyTrustSet(tx, acct)
	case TxAccountSet:
		// Only the RequireDest flag matters to the simulation; encode it
		// through the DestinationTag field (1 = set, 2 = clear).
		switch tx.DestinationTag {
		case 1:
			acct.RequireDestTag = true
		case 2:
			acct.RequireDestTag = false
		}
		return TesSUCCESS
	case TxSetRegularKey, TxSignerListSet:
		// Key and signer-list bookkeeping: no measurement reads it.
		return TesSUCCESS
	case TxEscrowCreate:
		return s.applyEscrowCreate(tx, acct)
	case TxEscrowFinish:
		return s.applyEscrowFinish(tx, now)
	case TxPaymentChannelCreate, TxPaymentChannelClaim:
		// Channels appear a handful of times in the dataset; accept them
		// without modelling channel state.
		return TesSUCCESS
	case TxEnableAmendment:
		return TesSUCCESS
	default:
		return TemBAD_AMOUNT
	}
}

// applyPayment handles XRP and IOU payments, including account activation
// and DEX-bridged cross-currency delivery.
func (s *State) applyPayment(tx *Transaction, sender *Account, now time.Time) ResultCode {
	if tx.Amount.Value <= 0 {
		return TemBAD_AMOUNT
	}
	if tx.Destination == "" || tx.Destination == tx.Account {
		return TemBAD_ACCOUNT
	}
	if tx.SendMax != nil && !tx.SendMax.SameAsset(tx.Amount) {
		return s.applyCrossCurrencyPayment(tx, now)
	}
	dest := s.accounts[tx.Destination]

	if tx.Amount.IsNative() {
		if dest == nil {
			// Activating payment: must fund at least the base reserve.
			if tx.Amount.Value < baseReserve {
				return TecNO_DST
			}
			if s.Spendable(sender) < tx.Amount.Value {
				return TecUNFUNDED_PAYMENT
			}
			sender.Balance -= tx.Amount.Value
			s.accounts[tx.Destination] = &Account{
				Address:   tx.Destination,
				Balance:   tx.Amount.Value,
				Parent:    tx.Account,
				Activated: now,
			}
			tx.DeliveredAmount = tx.Amount
			return TesSUCCESS
		}
		if dest.RequireDestTag && tx.DestinationTag == 0 {
			return TecDST_TAG_NEEDED
		}
		if s.Spendable(sender) < tx.Amount.Value {
			return TecUNFUNDED_PAYMENT
		}
		sender.Balance -= tx.Amount.Value
		dest.Balance += tx.Amount.Value
		tx.DeliveredAmount = tx.Amount
		return TesSUCCESS
	}

	// IOU payment: issuing, redeeming, or rippling through the issuer.
	if dest == nil {
		return TecNO_DST
	}
	if dest.RequireDestTag && tx.DestinationTag == 0 {
		return TecDST_TAG_NEEDED
	}
	code := s.moveIOU(tx.Account, tx.Destination, tx.Amount)
	if code.Success() {
		tx.DeliveredAmount = tx.Amount
	}
	return code
}
