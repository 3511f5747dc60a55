package tezos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chain"
)

// Protocol constants mirroring main net at the paper's observation window.
const (
	// EndorsementSlots is the number of endorsement slots per block; a block
	// requires at least 32 of them to be endorsed (the paper cites this
	// minimum as the root cause of endorsements being 82 % of all
	// operations on a quiet network).
	EndorsementSlots = 32
)

// rollMutez is 10,000 XTZ in mutez (XTZ has 6 decimals).
const rollMutez = int64(10_000) * 1_000_000

// Config parameterizes the simulated chain. TimeScale dilates the 60-second
// block interval the same way the EOS simulator dilates its 500 ms one.
type Config struct {
	Seed          int64
	Start         time.Time
	BlockInterval time.Duration
	// EndorsementParticipation is the probability an assigned slot is
	// actually endorsed; main net hovered around 0.72 in late 2019, which
	// yields the paper's ~23 endorsement operations per block.
	EndorsementParticipation float64
	// Governance holds the amendment process parameters.
	Governance GovernanceConfig
}

// DefaultConfig returns main-net-shaped parameters at the given time scale.
func DefaultConfig(timeScale int64) Config {
	if timeScale < 1 {
		timeScale = 1
	}
	return Config{
		Seed:                     2,
		Start:                    chain.ObservationStart,
		BlockInterval:            time.Duration(timeScale) * 60 * time.Second,
		EndorsementParticipation: 0.72,
		Governance:               DefaultGovernanceConfig(),
	}
}

// Errors returned when operations are rejected.
var (
	ErrUnknownSource = errors.New("tezos: unknown source account")
	ErrNotRevealed   = errors.New("tezos: manager key not revealed")
	ErrInsufficient  = errors.New("tezos: insufficient balance")
	ErrNotActivated  = errors.New("tezos: account not activated")
	ErrBadOperation  = errors.New("tezos: malformed operation")
	ErrNotBaker      = errors.New("tezos: source is not a registered baker")
)

// Baker is a stake-weighted block producer ("delegate").
type Baker struct {
	Address Address
	Stake   int64 // mutez, own + delegated
}

// Rolls returns the whole rolls behind the baker's stake.
func (b Baker) Rolls() int64 { return b.Stake / rollMutez }

// Chain is the simulated Tezos blockchain.
type Chain struct {
	cfg      Config
	clock    *chain.Clock
	rng      *chain.RNG
	accounts map[Address]*Account
	bakers   []Baker
	blocks   []*Block
	pending  []Operation
	gov      *Governance

	// Rejected counts operations refused during block production.
	Rejected int64
}

// New creates a chain with the given config, which starts from
// DefaultConfig; RegisterBaker must be called before blocks can be produced.
func New(cfg Config) *Chain {
	c := &Chain{
		cfg:      cfg,
		clock:    chain.NewClock(cfg.Start, cfg.BlockInterval),
		rng:      chain.NewRNG(cfg.Seed),
		accounts: make(map[Address]*Account),
	}
	c.gov = NewGovernance(cfg.Governance)
	return c
}

// RegisterBaker creates (or tops up) a baker with the given stake. LPoS lets
// the baker set grow and shrink dynamically; any account whose stake covers
// at least one roll may bake.
func (c *Chain) RegisterBaker(addr Address, stakeMutez int64) error {
	if !addr.IsImplicit() {
		return fmt.Errorf("tezos: baker %s must be an implicit account", addr)
	}
	if stakeMutez < rollMutez {
		return fmt.Errorf("tezos: stake %d below one roll (%d mutez)", stakeMutez, rollMutez)
	}
	acct := c.ensureAccount(addr)
	acct.Revealed = true
	acct.Activated = true
	acct.Balance += stakeMutez
	for i := range c.bakers {
		if c.bakers[i].Address == addr {
			c.bakers[i].Stake += stakeMutez
			return nil
		}
	}
	c.bakers = append(c.bakers, Baker{Address: addr, Stake: stakeMutez})
	return nil
}

// Bakers returns the current baker set.
func (c *Chain) Bakers() []Baker { return c.bakers }

// Governance exposes the amendment state machine.
func (c *Chain) Governance() *Governance { return c.gov }

// Now returns simulated time.
func (c *Chain) Now() time.Time { return c.clock.Now() }

// HeadLevel returns the latest block level (0 when empty).
func (c *Chain) HeadLevel() int64 { return int64(len(c.blocks)) }

// GetBlock returns the block at level (1-based), or nil.
func (c *Chain) GetBlock(level int64) *Block {
	if level < 1 || level > int64(len(c.blocks)) {
		return nil
	}
	return c.blocks[level-1]
}

// FundAccount credits mutez to an account, creating it if needed (the
// simulator's stand-in for genesis balances).
func (c *Chain) FundAccount(addr Address, mutez int64) *Account {
	a := c.ensureAccount(addr)
	a.Balance += mutez
	return a
}

func (c *Chain) ensureAccount(addr Address) *Account {
	if a, ok := c.accounts[addr]; ok {
		return a
	}
	a := &Account{Address: addr, Activated: true}
	c.accounts[addr] = a
	return a
}

// Inject queues a manager or governance operation for the next block.
func (c *Chain) Inject(op Operation) { c.pending = append(c.pending, op) }

// selectBaker draws the block baker weighted by stake, deterministic in the
// chain's RNG. Priority-0 baking only; missed priorities are not simulated.
func (c *Chain) selectBaker() Baker {
	weights := make([]float64, len(c.bakers))
	for i, b := range c.bakers {
		weights[i] = float64(b.Rolls())
	}
	return c.bakers[c.rng.WeightedPick(weights)]
}

// endorsementsFor assigns the previous block's 32 slots to bakers weighted
// by stake and merges each baker's slots into a single endorsement
// operation, as the protocol does. Participation draws decide whether a
// baker actually endorsed; main-net's ~72 % participation yields the ~23
// endorsement operations per block the paper's totals imply.
func (c *Chain) endorsementsFor(level int64) []Operation {
	if level < 1 || len(c.bakers) == 0 {
		return nil
	}
	weights := make([]float64, len(c.bakers))
	for i, b := range c.bakers {
		weights[i] = float64(b.Rolls())
	}
	slotsByBaker := make(map[int][]int)
	for slot := 0; slot < EndorsementSlots; slot++ {
		idx := c.rng.WeightedPick(weights)
		slotsByBaker[idx] = append(slotsByBaker[idx], slot)
	}
	var ops []Operation
	for idx := range c.bakers { // index order keeps runs deterministic
		slots, ok := slotsByBaker[idx]
		if !ok || !c.rng.Bool(c.cfg.EndorsementParticipation) {
			continue
		}
		ops = append(ops, Operation{
			Kind:   KindEndorsement,
			Source: c.bakers[idx].Address,
			Slots:  slots,
			Level:  level,
		})
	}
	return ops
}

// ProduceBlock bakes the next block: endorsements for the previous block
// first, then every pending operation that validates. Invalid operations are
// dropped and counted in Rejected.
func (c *Chain) ProduceBlock() (*Block, error) {
	if len(c.bakers) == 0 {
		return nil, fmt.Errorf("tezos: no bakers registered")
	}
	level := int64(len(c.blocks) + 1)
	baker := c.selectBaker()
	blk := &Block{
		Level:     level,
		Timestamp: c.clock.Now(),
		Baker:     baker.Address,
	}
	if len(c.blocks) > 0 {
		blk.Predecessor = c.blocks[len(c.blocks)-1].Hash
	}

	blk.Operations = append(blk.Operations, c.endorsementsFor(level-1)...)

	for _, op := range c.pending {
		if err := c.applyOperation(&op, blk); err != nil {
			c.Rejected++
			continue
		}
		blk.Operations = append(blk.Operations, op)
	}
	c.pending = c.pending[:0]

	blk.Hash = chain.HashOf("tezos-block", uint64(level), string(baker.Address), blk.Timestamp.UnixNano())
	c.blocks = append(c.blocks, blk)
	c.gov.ObserveBlock(c, blk)
	c.clock.Tick()
	return blk, nil
}

// applyOperation validates and applies a single operation against state.
func (c *Chain) applyOperation(op *Operation, blk *Block) error {
	switch op.Kind {
	case KindTransaction:
		src, ok := c.accounts[op.Source]
		if !ok {
			return ErrUnknownSource
		}
		if !src.Activated {
			return ErrNotActivated
		}
		if src.Address.IsImplicit() && !src.Revealed {
			return ErrNotRevealed
		}
		total := op.Amount + op.Fee
		if op.Amount < 0 || op.Fee < 0 || src.Balance < total {
			return ErrInsufficient
		}
		src.Balance -= total
		src.Counter++
		c.ensureAccount(op.Destination).Balance += op.Amount
		return nil
	case KindReveal:
		src, ok := c.accounts[op.Source]
		if !ok {
			return ErrUnknownSource
		}
		if src.Revealed {
			return fmt.Errorf("tezos: %s already revealed", op.Source)
		}
		src.Revealed = true
		return nil
	case KindActivation:
		if existing, ok := c.accounts[op.Source]; ok && existing.Activated {
			return fmt.Errorf("tezos: %s already activated", op.Source)
		}
		acct := c.ensureAccount(op.Source)
		acct.Activated = true
		acct.Balance += op.Amount // fundraiser allocation
		return nil
	case KindOrigination:
		src, ok := c.accounts[op.Source]
		if !ok {
			return ErrUnknownSource
		}
		if op.Destination == "" || !op.Destination.IsOriginated() {
			return fmt.Errorf("%w: origination needs a KT1 destination", ErrBadOperation)
		}
		if _, dup := c.accounts[op.Destination]; dup {
			return fmt.Errorf("tezos: contract %s already originated", op.Destination)
		}
		if src.Balance < op.Amount+op.Fee {
			return ErrInsufficient
		}
		src.Balance -= op.Amount + op.Fee
		kt := c.ensureAccount(op.Destination)
		kt.Balance = op.Amount
		kt.Manager = op.Source
		kt.Revealed = true
		return nil
	case KindDelegation:
		src, ok := c.accounts[op.Source]
		if !ok {
			return ErrUnknownSource
		}
		src.Delegate = op.Delegate
		return nil
	case KindProposals:
		return c.gov.ApplyProposals(c, op, blk)
	case KindBallot:
		return c.gov.ApplyBallot(c, op, blk)
	case KindSeedNonce, KindDoubleBaking:
		// Consensus bookkeeping carried by bakers; no balance effects that
		// the measurements depend on.
		return nil
	case KindEndorsement:
		return fmt.Errorf("%w: endorsements are produced by the baker, not injected", ErrBadOperation)
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadOperation, op.Kind)
	}
}

// IsBaker reports whether addr is in the current baker set.
func (c *Chain) IsBaker(addr Address) bool {
	for _, b := range c.bakers {
		if b.Address == addr {
			return true
		}
	}
	return false
}

// BakerRolls returns the rolls of addr, or 0 when it is not a baker.
func (c *Chain) BakerRolls(addr Address) int64 {
	for _, b := range c.bakers {
		if b.Address == addr {
			return b.Rolls()
		}
	}
	return 0
}
