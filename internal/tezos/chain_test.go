package tezos

import (
	"testing"
	"testing/quick"

	"repro/internal/chain"
)

const xtz = int64(1_000_000) // one XTZ in mutez

// newTestChain builds a chain with n equally staked bakers.
func newTestChain(t *testing.T, n int) *Chain {
	t.Helper()
	c := New(DefaultConfig(1000))
	for i := 0; i < n; i++ {
		addr := NewImplicitAddress("baker-" + string(rune('a'+i)))
		if err := c.RegisterBaker(addr, 50_000*xtz); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestAddressShapes(t *testing.T) {
	impl := NewImplicitAddress("alice")
	if !impl.IsImplicit() || impl.IsOriginated() {
		t.Fatalf("implicit address misclassified: %s", impl)
	}
	orig := NewOriginatedAddress("contract-1")
	if !orig.IsOriginated() || orig.IsImplicit() {
		t.Fatalf("originated address misclassified: %s", orig)
	}
	if junk := Address("xyz123"); junk.IsImplicit() || junk.IsOriginated() {
		t.Fatal("junk address classified")
	}
}

func TestAddressDeterminism(t *testing.T) {
	if NewImplicitAddress("x") != NewImplicitAddress("x") {
		t.Fatal("address derivation not deterministic")
	}
	if NewImplicitAddress("x") == NewImplicitAddress("y") {
		t.Fatal("distinct labels collided")
	}
}

func TestRegisterBakerRules(t *testing.T) {
	c := New(DefaultConfig(1000))
	if err := c.RegisterBaker(NewOriginatedAddress("kt"), 50_000*xtz); err == nil {
		t.Fatal("originated account registered as baker")
	}
	// Below the one-roll (10,000 XTZ) threshold.
	if err := c.RegisterBaker(NewImplicitAddress("poor"), 9_999*xtz); err == nil {
		t.Fatal("sub-roll stake registered as baker")
	}
	addr := NewImplicitAddress("rich")
	if err := c.RegisterBaker(addr, 20_000*xtz); err != nil {
		t.Fatal(err)
	}
	if got := c.BakerRolls(addr); got != 2 {
		t.Fatalf("rolls = %d, want 2", got)
	}
	// Topping up merges stake rather than duplicating the baker.
	if err := c.RegisterBaker(addr, 10_000*xtz); err != nil {
		t.Fatal(err)
	}
	if len(c.Bakers()) != 1 || c.BakerRolls(addr) != 3 {
		t.Fatalf("baker top-up broken: %d bakers, %d rolls", len(c.Bakers()), c.BakerRolls(addr))
	}
}

func TestBlocksCarryEndorsementsForPredecessor(t *testing.T) {
	c := newTestChain(t, 40)
	b1, err := c.ProduceBlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(endorsementOps(b1)) != 0 {
		t.Fatal("genesis block cannot endorse a predecessor")
	}
	b2, err := c.ProduceBlock()
	if err != nil {
		t.Fatal(err)
	}
	ops := endorsementOps(b2)
	if len(ops) == 0 {
		t.Fatal("no endorsements for block 1")
	}
	for _, op := range ops {
		if op.Level != 1 {
			t.Fatalf("endorsement for level %d, want 1", op.Level)
		}
	}
	if endorsedSlots(b2) > EndorsementSlots {
		t.Fatalf("%d slots endorsed, max %d", endorsedSlots(b2), EndorsementSlots)
	}
}

func TestEndorsementOpsPerBlockNearPaperAverage(t *testing.T) {
	// The paper's totals imply ~23 endorsement operations per block
	// (3,021,296 endorsements / 131,801 blocks). With 40 bakers at 72 %
	// participation the simulator should land in that neighbourhood.
	c := newTestChain(t, 40)
	total := 0
	const blocks = 300
	for i := 0; i < blocks; i++ {
		b, err := c.ProduceBlock()
		if err != nil {
			t.Fatal(err)
		}
		total += len(endorsementOps(b))
	}
	avg := float64(total) / float64(blocks-1) // first block endorses nothing
	if avg < 15 || avg > 28 {
		t.Fatalf("avg endorsement ops per block = %.1f, want ~23", avg)
	}
}

func TestTransactionLifecycle(t *testing.T) {
	c := newTestChain(t, 5)
	alice := NewImplicitAddress("alice")
	bob := NewImplicitAddress("bob")
	acct := c.FundAccount(alice, 100*xtz)
	acct.Revealed = true

	c.Inject(Operation{Kind: KindTransaction, Source: alice, Destination: bob, Amount: 10 * xtz, Fee: 1000})
	b, err := c.ProduceBlock()
	if err != nil {
		t.Fatal(err)
	}
	var txs int
	for _, op := range b.Operations {
		if op.Kind == KindTransaction {
			txs++
		}
	}
	if txs != 1 {
		t.Fatalf("block carries %d transactions", txs)
	}
	if got := c.accounts[bob].Balance; got != 10*xtz {
		t.Fatalf("bob = %d", got)
	}
	if got := c.accounts[alice].Balance; got != 90*xtz-1000 {
		t.Fatalf("alice = %d", got)
	}
	if got := c.accounts[alice].Counter; got != 1 {
		t.Fatalf("counter = %d", got)
	}
}

func TestTransactionRequiresReveal(t *testing.T) {
	c := newTestChain(t, 5)
	alice := NewImplicitAddress("alice2")
	c.FundAccount(alice, 100*xtz) // not revealed
	c.Inject(Operation{Kind: KindTransaction, Source: alice, Destination: NewImplicitAddress("bob2"), Amount: xtz})
	if _, err := c.ProduceBlock(); err != nil {
		t.Fatal(err)
	}
	if c.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", c.Rejected)
	}
	// After a reveal operation the transfer goes through.
	c.Inject(Operation{Kind: KindReveal, Source: alice})
	c.Inject(Operation{Kind: KindTransaction, Source: alice, Destination: NewImplicitAddress("bob2"), Amount: xtz})
	if _, err := c.ProduceBlock(); err != nil {
		t.Fatal(err)
	}
	if c.Rejected != 1 {
		t.Fatalf("rejected after reveal = %d", c.Rejected)
	}
}

func TestTransactionInsufficientBalance(t *testing.T) {
	c := newTestChain(t, 5)
	alice := NewImplicitAddress("alice3")
	c.FundAccount(alice, xtz).Revealed = true
	c.Inject(Operation{Kind: KindTransaction, Source: alice, Destination: NewImplicitAddress("bob3"), Amount: 2 * xtz})
	c.ProduceBlock()
	if c.Rejected != 1 {
		t.Fatalf("rejected = %d", c.Rejected)
	}
}

func TestOrigination(t *testing.T) {
	c := newTestChain(t, 5)
	alice := NewImplicitAddress("alice4")
	c.FundAccount(alice, 100*xtz).Revealed = true
	kt := NewOriginatedAddress("alice4-contract")
	c.Inject(Operation{Kind: KindOrigination, Source: alice, Destination: kt, Amount: 5 * xtz, Fee: 500})
	c.ProduceBlock()
	contract := c.accounts[kt]
	if contract == nil {
		t.Fatal("contract not originated")
	}
	if contract.Manager != alice || contract.Balance != 5*xtz {
		t.Fatalf("contract state: %+v", contract)
	}
	// Duplicate origination must fail.
	c.Inject(Operation{Kind: KindOrigination, Source: alice, Destination: kt, Amount: xtz})
	c.ProduceBlock()
	if c.Rejected != 1 {
		t.Fatalf("duplicate origination not rejected")
	}
}

func TestActivationAndDelegation(t *testing.T) {
	c := newTestChain(t, 5)
	fundraiser := NewImplicitAddress("fundraiser-1")
	c.Inject(Operation{Kind: KindActivation, Source: fundraiser, Amount: 1000 * xtz})
	c.ProduceBlock()
	acct := c.accounts[fundraiser]
	if acct == nil || !acct.Activated || acct.Balance != 1000*xtz {
		t.Fatalf("activation failed: %+v", acct)
	}
	baker := c.Bakers()[0].Address
	c.Inject(Operation{Kind: KindDelegation, Source: fundraiser, Delegate: baker})
	c.ProduceBlock()
	if got := c.accounts[fundraiser].Delegate; got != baker {
		t.Fatalf("delegate = %s", got)
	}
}

func TestInjectedEndorsementRejected(t *testing.T) {
	c := newTestChain(t, 5)
	c.Inject(Operation{Kind: KindEndorsement, Source: c.Bakers()[0].Address})
	c.ProduceBlock()
	if c.Rejected != 1 {
		t.Fatal("injected endorsement accepted")
	}
}

func TestProduceBlockWithoutBakers(t *testing.T) {
	c := New(DefaultConfig(1000))
	if _, err := c.ProduceBlock(); err == nil {
		t.Fatal("bakerless chain produced a block")
	}
}

func TestBalanceConservationProperty(t *testing.T) {
	// Transfers (with zero fees) conserve total supply no matter the order
	// or validity of the injected operations.
	addrs := []Address{
		NewImplicitAddress("p1"), NewImplicitAddress("p2"),
		NewImplicitAddress("p3"), NewImplicitAddress("p4"),
	}
	f := func(moves []uint16) bool {
		c := newTestChainQuick()
		var initial int64
		for _, a := range addrs {
			acct := c.FundAccount(a, 1000*xtz)
			acct.Revealed = true
			initial += acct.Balance
		}
		for _, b := range c.Bakers() {
			initial += c.accounts[b.Address].Balance
		}
		for _, m := range moves {
			from := addrs[int(m)%len(addrs)]
			to := addrs[int(m>>2)%len(addrs)]
			c.Inject(Operation{Kind: KindTransaction, Source: from, Destination: to, Amount: int64(m%9999) * 100})
			if m%5 == 0 {
				if _, err := c.ProduceBlock(); err != nil {
					return false
				}
			}
		}
		if _, err := c.ProduceBlock(); err != nil {
			return false
		}
		var final int64
		for addr := range c.accounts {
			final += c.accounts[addr].Balance
		}
		return final == initial
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Fatal(err)
	}
}

func newTestChainQuick() *Chain {
	c := New(DefaultConfig(1000))
	for i := 0; i < 3; i++ {
		_ = c.RegisterBaker(NewImplicitAddress("qb-"+string(rune('a'+i))), 50_000*xtz)
	}
	return c
}

func quickConfig() *quick.Config {
	return &quick.Config{MaxCount: 30}
}

func TestTimestampsUseScaledInterval(t *testing.T) {
	c := newTestChain(t, 3)
	b1, _ := c.ProduceBlock()
	b2, _ := c.ProduceBlock()
	if got := b2.Timestamp.Sub(b1.Timestamp); got != DefaultConfig(1000).BlockInterval {
		t.Fatalf("interval %v", got)
	}
	_ = chain.ObservationStart // keep import for clarity of window origin
}

// endorsementOps returns the block's endorsement operations.
func endorsementOps(b *Block) []Operation {
	var out []Operation
	for _, op := range b.Operations {
		if op.Kind == KindEndorsement {
			out = append(out, op)
		}
	}
	return out
}

// endorsedSlots sums the slots covered by the block's endorsements.
func endorsedSlots(b *Block) int {
	n := 0
	for _, op := range endorsementOps(b) {
		n += len(op.Slots)
	}
	return n
}
