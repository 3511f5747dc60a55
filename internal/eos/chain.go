package eos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chain"
)

// Config parameterizes a simulated EOS chain. TimeScale compresses the
// simulation: a TimeScale of 1000 makes blocks 1000× rarer (and workloads
// generate 1000× fewer transactions) while preserving every reported share
// and ranking — see DESIGN.md's substitution table.
type Config struct {
	Start         time.Time
	BlockInterval time.Duration
	// CPUMicrosPerAction is the billed cost of one user action.
	CPUMicrosPerAction int64
	// NumProducers is the size of the active producer schedule (21 on EOS).
	NumProducers int
	// BlocksPerProducer is the consecutive blocks each producer bakes per
	// round (6 on EOS, giving the 126-block round the whitepaper defines).
	BlocksPerProducer int
}

// DefaultConfig returns main-net-shaped parameters at the given time scale.
func DefaultConfig(timeScale int64) Config {
	if timeScale < 1 {
		timeScale = 1
	}
	return Config{
		Start:              chain.ObservationStart,
		BlockInterval:      time.Duration(timeScale) * 500 * time.Millisecond,
		CPUMicrosPerAction: 300,
		NumProducers:       21,
		BlocksPerProducer:  6,
	}
}

// blockCPUCapacityMicros is the chain's CPU budget per block in real
// (undilated) terms: 200 ms per 0.5 s block on main net. Per-block action
// counts are scale-invariant under time dilation, so utilization fractions
// stay comparable at any scale.
const blockCPUCapacityMicros = 200_000

// ErrInsufficientCPU is returned when the payer account has exhausted its
// CPU allowance — the paper's §4.1 describes exactly this failure mode for
// unstaked gamers once EIDOS pushed the network into congestion mode.
var ErrInsufficientCPU = errors.New("eos: insufficient CPU allowance")

// Chain is the simulated EOS blockchain.
type Chain struct {
	cfg       Config
	clock     *chain.Clock
	producers []Name
	accounts  map[Name]*Account
	tokens    *TokenState
	res       *ResourceState
	ram       *RAMMarket
	contracts map[Name]Contract
	blocks    []*Block
	pending   []*Transaction

	// RejectedCPU counts transactions refused for CPU exhaustion; the
	// congestion case study asserts this spikes after the EIDOS launch.
	RejectedCPU int64
	// RejectedOther counts transactions refused for any other reason.
	RejectedOther int64
}

// New creates a chain with system accounts, the EOS token, an active
// producer schedule and the system/token contracts installed. cfg starts
// from DefaultConfig.
func New(cfg Config) *Chain {
	c := &Chain{
		cfg:       cfg,
		clock:     chain.NewClock(cfg.Start, cfg.BlockInterval),
		accounts:  make(map[Name]*Account),
		tokens:    NewTokenState(),
		res:       NewResourceState(),
		ram:       NewRAMMarket(),
		contracts: make(map[Name]Contract),
	}
	// CPU budget must track the (possibly dilated) block interval so that
	// utilization fractions are scale-invariant.
	c.res.CPUMicrosPerSecond = 400_000

	c.genesis()
	return c
}

func (c *Chain) genesis() {
	for _, sys := range []Name{SystemAccount, TokenAccount, MsigAccount, WrapAccount,
		RexAccount, RAMAccount, StakeAccount, NamesAccount} {
		c.accounts[sys] = &Account{Name: sys, Created: c.cfg.Start, System: true,
			Privileged: sys == SystemAccount || sys == MsigAccount || sys == WrapAccount}
	}
	c.contracts[SystemAccount] = &SystemContract{}
	c.contracts[TokenAccount] = &TokenContract{Account: TokenAccount}

	// The EOS core token with a main-net-like supply held by eosio.
	const maxSupply = 10_000_000_000_0000 // 10B EOS at 4 decimals
	if err := c.tokens.Create(TokenAccount, "EOS", 4, maxSupply); err != nil {
		panic(err)
	}
	if err := c.tokens.Issue(TokenAccount, SystemAccount, chain.EOSAsset(1_000_000_000_0000)); err != nil {
		panic(err)
	}

	// Active producer schedule: prodname11111 … prodname1121-like names.
	alphabet := "12345abcdefghijklmnopqrstu"
	for i := 0; i < c.cfg.NumProducers; i++ {
		name := MustName("prod" + string(alphabet[i%len(alphabet)]) + "block")
		if _, dup := c.accounts[name]; dup {
			name = MustName("prod" + string(alphabet[i%len(alphabet)]) + "chain")
		}
		c.accounts[name] = &Account{Name: name, Created: c.cfg.Start}
		c.producers = append(c.producers, name)
	}
}

// Tokens exposes the token universe (contracts use it during execution).
func (c *Chain) Tokens() *TokenState { return c.tokens }

// Resources exposes the CPU market.
func (c *Chain) Resources() *ResourceState { return c.res }

// RAM exposes the RAM market.
func (c *Chain) RAM() *RAMMarket { return c.ram }

// Now returns the chain's simulated time.
func (c *Chain) Now() time.Time { return c.clock.Now() }

// HeadNum returns the most recent block number (0 when no block exists).
func (c *Chain) HeadNum() uint32 { return uint32(len(c.blocks)) }

// GetBlock returns block num (1-based), or nil when out of range.
func (c *Chain) GetBlock(num uint32) *Block {
	if num < 1 || int(num) > len(c.blocks) {
		return nil
	}
	return c.blocks[num-1]
}

// HasAccount reports whether name exists.
func (c *Chain) HasAccount(name Name) bool {
	_, ok := c.accounts[name]
	return ok
}

// GetAccount returns the account record, or nil.
func (c *Chain) GetAccount(name Name) *Account { return c.accounts[name] }

// CreateAccount registers a fresh account created by creator.
func (c *Chain) CreateAccount(name, creator Name) error {
	if !name.Valid() || name == 0 {
		return fmt.Errorf("eos: invalid account name %q", name.String())
	}
	if _, dup := c.accounts[name]; dup {
		return fmt.Errorf("eos: account %s already exists", name)
	}
	c.accounts[name] = &Account{Name: name, Created: c.clock.Now(), Creator: creator}
	return nil
}

// SetContract installs code on an account, replacing any previous handler.
func (c *Chain) SetContract(account Name, contract Contract) error {
	if !c.HasAccount(account) {
		if err := c.CreateAccount(account, SystemAccount); err != nil {
			return err
		}
	}
	c.contracts[account] = contract
	return nil
}

func (c *Chain) account(act Action, key string) *Account {
	n, err := ParseName(act.Data[key])
	if err != nil {
		return nil
	}
	return c.accounts[n]
}

// PushTransaction queues a transaction for the next block.
func (c *Chain) PushTransaction(actions ...Action) {
	c.pending = append(c.pending, &Transaction{Actions: actions})
}

// ProduceBlock executes all pending transactions under resource accounting,
// assembles the block, advances the clock and returns the block. Rejected
// transactions are counted but never included — matching EOS, where failed
// transactions leave no on-chain trace.
func (c *Chain) ProduceBlock() *Block {
	num := uint32(len(c.blocks) + 1)
	round := int(num-1) / c.cfg.BlocksPerProducer
	producer := c.producers[round%len(c.producers)]
	now := c.clock.Now()

	blk := &Block{
		Num:       num,
		Timestamp: now,
		Producer:  producer,
	}
	if len(c.blocks) > 0 {
		blk.Previous = c.blocks[len(c.blocks)-1].ID
	}

	var cpuUsed int64
	for _, tx := range c.pending {
		if err := c.applyTransaction(tx, now, &cpuUsed); err != nil {
			if errors.Is(err, ErrInsufficientCPU) {
				c.RejectedCPU++
			} else {
				c.RejectedOther++
			}
			continue
		}
		tx.ID = chain.HashOf("eos-tx", uint64(num), len(blk.Transactions),
			tx.Actions[0].Account.String(), tx.Actions[0].ActionName.String())
		blk.Transactions = append(blk.Transactions, *tx)
	}
	c.pending = c.pending[:0]

	c.res.ObserveBlock(cpuUsed, blockCPUCapacityMicros)

	blk.ID = chain.HashOf("eos-block", uint64(num), producer.String(), now.UnixNano())
	c.blocks = append(c.blocks, blk)
	c.clock.Tick()
	return blk
}

// applyTransaction bills CPU, then executes the action queue (which may grow
// through inline emissions) atomically against token state.
func (c *Chain) applyTransaction(tx *Transaction, now time.Time, cpuUsed *int64) error {
	if len(tx.Actions) == 0 {
		return fmt.Errorf("eos: empty transaction")
	}
	payerName := tx.Actions[0].Actor()
	payer := c.accounts[payerName]
	if payer == nil {
		return fmt.Errorf("eos: unknown payer %s", payerName)
	}
	cost := c.cfg.CPUMicrosPerAction * int64(len(tx.Actions))
	if !payer.System && !payer.Privileged {
		if !c.res.chargeCPU(&payer.Resources, now, cost) {
			return ErrInsufficientCPU
		}
	}
	*cpuUsed += cost
	userActions := len(tx.Actions)

	c.tokens.Begin()
	queue := append([]Action(nil), tx.Actions...)
	executed := make([]Action, 0, len(queue)+2)
	ctx := &Context{Chain: c}
	ctx.emit = func(a Action) error {
		queue = append(queue, a)
		return nil
	}
	for i := 0; i < len(queue); i++ {
		act := queue[i]
		contract, ok := c.contracts[act.Account]
		if !ok {
			c.tokens.Rollback()
			return fmt.Errorf("eos: account %s has no contract", act.Account)
		}
		ctx.depth = 0
		if act.Inline {
			ctx.depth = 1
		}
		if err := contract.Apply(ctx, act); err != nil {
			c.tokens.Rollback()
			return err
		}
		executed = append(executed, act)
	}
	c.tokens.Commit()
	// Inline actions emitted during execution are billed to the payer at
	// actual usage, as eosio does; they are never grounds for rejection of
	// an already-executed transaction.
	if extra := len(executed) - userActions; extra > 0 {
		extraCost := c.cfg.CPUMicrosPerAction * int64(extra)
		if !payer.System && !payer.Privileged {
			payer.Resources.cpuUsedMicros += extraCost
		}
		*cpuUsed += extraCost
	}
	tx.Actions = executed
	return nil
}
