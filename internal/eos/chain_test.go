package eos

import (
	"testing"
	"time"

	"repro/internal/chain"
)

// newTestChain builds a chain with two funded, staked user accounts.
func newTestChain(t *testing.T) *Chain {
	t.Helper()
	c := New(DefaultConfig(1000))
	for _, name := range []string{"alice", "bob"} {
		n := MustName(name)
		if err := c.CreateAccount(n, SystemAccount); err != nil {
			t.Fatal(err)
		}
		if err := c.Tokens().Transfer(TokenAccount, SystemAccount, n, chain.EOSAsset(10_000_0000)); err != nil {
			t.Fatal(err)
		}
		c.Resources().Stake(&c.GetAccount(n).Resources, 100_0000, 100_0000)
	}
	return c
}

func transferAction(from, to string, amount int64) Action {
	return NewAction(TokenAccount, ActTransfer, MustName(from), map[string]string{
		"from":     from,
		"to":       to,
		"quantity": chain.EOSAsset(amount).String(),
	})
}

func TestProduceBlockExecutesTransfer(t *testing.T) {
	c := newTestChain(t)
	c.PushTransaction(transferAction("alice", "bob", 5_0000))
	blk := c.ProduceBlock()
	if len(blk.Transactions) != 1 {
		t.Fatalf("block has %d txs", len(blk.Transactions))
	}
	if blk.Transactions[0].ID == (chain.Hash{}) {
		t.Fatal("transaction not assigned an ID")
	}
	if got := c.Tokens().Balance(TokenAccount, MustName("bob"), "EOS").Amount; got != 10_005_0000 {
		t.Fatalf("bob = %d", got)
	}
}

func TestFailedTransactionExcludedAndRolledBack(t *testing.T) {
	c := newTestChain(t)
	// Two actions: the first succeeds, the second overdraws. The whole
	// transaction must vanish and the first action's effect roll back.
	c.PushTransaction(
		transferAction("alice", "bob", 1_0000),
		transferAction("alice", "bob", 999_999_0000),
	)
	blk := c.ProduceBlock()
	if len(blk.Transactions) != 0 {
		t.Fatalf("failed tx included in block")
	}
	if c.RejectedOther != 1 {
		t.Fatalf("RejectedOther = %d", c.RejectedOther)
	}
	if got := c.Tokens().Balance(TokenAccount, MustName("bob"), "EOS").Amount; got != 10_000_0000 {
		t.Fatalf("partial effect leaked: bob = %d", got)
	}
}

func TestProducerScheduleRounds(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.NumProducers = 3
	cfg.BlocksPerProducer = 2
	c := New(cfg)
	var producers []Name
	for i := 0; i < 8; i++ {
		producers = append(producers, c.ProduceBlock().Producer)
	}
	// Expect pattern AABBCCAA with 3 producers × 2 blocks each.
	if producers[0] != producers[1] || producers[2] != producers[3] {
		t.Fatalf("producers not batched: %v", producers)
	}
	if producers[0] == producers[2] {
		t.Fatal("schedule did not rotate")
	}
	if producers[6] != producers[0] {
		t.Fatalf("round did not wrap: %v", producers)
	}
}

func TestBlockTimestampsAdvance(t *testing.T) {
	c := New(DefaultConfig(1000))
	b1 := c.ProduceBlock()
	b2 := c.ProduceBlock()
	want := DefaultConfig(1000).BlockInterval
	if got := b2.Timestamp.Sub(b1.Timestamp); got != want {
		t.Fatalf("block interval %v, want %v", got, want)
	}
	if b2.Previous != b1.ID {
		t.Fatal("chain linkage broken")
	}
}

func TestGetBlockBounds(t *testing.T) {
	c := New(DefaultConfig(1000))
	c.ProduceBlock()
	if c.GetBlock(0) != nil || c.GetBlock(2) != nil {
		t.Fatal("out-of-range blocks returned")
	}
	if c.GetBlock(1) == nil {
		t.Fatal("block 1 missing")
	}
}

func TestUnstakedAccountRejectedDuringCongestion(t *testing.T) {
	c := newTestChain(t)
	// Force congestion directly: the market flag flips once utilization
	// crosses the threshold.
	for i := 0; i < 200; i++ {
		c.Resources().ObserveBlock(1_000_000, 1_000_000)
	}
	if !c.Resources().Congested() {
		t.Fatal("network did not congest")
	}
	// A freshly created account with zero stake cannot act in congestion.
	if err := c.CreateAccount(MustName("pauper"), SystemAccount); err != nil {
		t.Fatal(err)
	}
	if err := c.Tokens().Transfer(TokenAccount, SystemAccount, MustName("pauper"), chain.EOSAsset(1_0000)); err != nil {
		t.Fatal(err)
	}
	c.PushTransaction(transferAction("pauper", "alice", 1))
	c.ProduceBlock()
	if c.RejectedCPU != 1 {
		t.Fatalf("RejectedCPU = %d, want 1", c.RejectedCPU)
	}
}

func TestRentPriceSpikesUnderLoad(t *testing.T) {
	rs := NewResourceState()
	base := rs.RentPriceIndex()
	for i := 0; i < 300; i++ {
		rs.ObserveBlock(1_000_000, 1_000_000)
	}
	spike := rs.RentPriceIndex()
	// The paper reports a 10,000% (=100×) CPU price spike.
	if spike < base*50 {
		t.Fatalf("rent index only rose from %.2f to %.2f", base, spike)
	}
}

func TestCongestionHysteresis(t *testing.T) {
	rs := NewResourceState()
	for i := 0; i < 300; i++ {
		rs.ObserveBlock(1_000_000, 1_000_000)
	}
	if !rs.Congested() {
		t.Fatal("did not congest")
	}
	// Dropping marginally below the threshold must NOT immediately clear.
	for i := 0; i < 3; i++ {
		rs.ObserveBlock(750_000, 1_000_000)
	}
	if !rs.Congested() {
		t.Fatal("congestion cleared too eagerly")
	}
	for i := 0; i < 500; i++ {
		rs.ObserveBlock(0, 1_000_000)
	}
	if rs.Congested() {
		t.Fatal("congestion never cleared")
	}
}

func TestSystemNewAccountAndDelegate(t *testing.T) {
	c := newTestChain(t)
	c.PushTransaction(NewAction(SystemAccount, ActNewAccount, MustName("alice"), map[string]string{
		"name": "carol",
	}))
	c.ProduceBlock()
	if !c.HasAccount(MustName("carol")) {
		t.Fatal("carol not created")
	}
	// Delegate bandwidth to carol; stake should move and be recorded.
	c.PushTransaction(NewAction(SystemAccount, ActDelegateBW, MustName("alice"), map[string]string{
		"receiver":           "carol",
		"stake_cpu_quantity": "10.0000 EOS",
		"stake_net_quantity": "5.0000 EOS",
	}))
	c.ProduceBlock()
	carol := c.GetAccount(MustName("carol"))
	if carol.Resources.CPUStaked != 10_0000 || carol.Resources.NETStaked != 5_0000 {
		t.Fatalf("carol stake = %+v", carol.Resources)
	}
	if got := c.Tokens().Balance(TokenAccount, StakeAccount, "EOS").Amount; got != 15_0000 {
		t.Fatalf("stake escrow = %d", got)
	}
}

func TestSystemBuyRAMBytes(t *testing.T) {
	c := newTestChain(t)
	before := pricePerKB(c.RAM())
	c.PushTransaction(NewAction(SystemAccount, ActBuyRAMBytes, MustName("alice"), map[string]string{
		"receiver": "alice",
		"bytes":    "1048576",
	}))
	blk := c.ProduceBlock()
	if len(blk.Transactions) != 1 {
		t.Fatalf("buyrambytes rejected (rejected=%d other=%d)", c.RejectedCPU, c.RejectedOther)
	}
	if got := c.GetAccount(MustName("alice")).Resources.RAMBytes; got != 1048576 {
		t.Fatalf("alice RAM = %d", got)
	}
	if after := pricePerKB(c.RAM()); after <= before {
		t.Fatalf("RAM price did not rise: %f -> %f", before, after)
	}
}

func TestEIDOSBoomerang(t *testing.T) {
	c := newTestChain(t)
	eidos := NewEIDOSContract()
	if err := c.SetContract(EIDOSContract, eidos); err != nil {
		t.Fatal(err)
	}
	if err := c.Tokens().Create(EIDOSContract, EIDOSToken, 4, 1_000_000_000_0000); err != nil {
		t.Fatal(err)
	}
	if err := c.Tokens().Issue(EIDOSContract, EIDOSContract, chain.NewAsset(100_000_000, 0, 4, EIDOSToken)); err != nil {
		t.Fatal(err)
	}

	aliceEOSBefore := c.Tokens().Balance(TokenAccount, MustName("alice"), "EOS").Amount
	c.PushTransaction(transferAction("alice", EIDOSContract.String(), 1_0000))
	blk := c.ProduceBlock()

	if len(blk.Transactions) != 1 {
		t.Fatalf("mining tx rejected (other=%d)", c.RejectedOther)
	}
	// One user action + two inline legs (EOS refund, EIDOS payout).
	if got := len(blk.Transactions[0].Actions); got != 3 {
		t.Fatalf("boomerang recorded %d actions, want 3", got)
	}
	if !blk.Transactions[0].Actions[1].Inline || !blk.Transactions[0].Actions[2].Inline {
		t.Fatal("contract legs not marked inline")
	}
	// EOS boomeranged back: alice's balance is unchanged.
	if got := c.Tokens().Balance(TokenAccount, MustName("alice"), "EOS").Amount; got != aliceEOSBefore {
		t.Fatalf("alice EOS changed: %d -> %d", aliceEOSBefore, got)
	}
	// And she now holds 0.01% of the contract's pre-payout EIDOS.
	gotEIDOS := c.Tokens().Balance(EIDOSContract, MustName("alice"), EIDOSToken).Amount
	if gotEIDOS != 100_000_000_0000/10_000 {
		t.Fatalf("alice EIDOS = %d", gotEIDOS)
	}
	if eidos.Mines != 1 {
		t.Fatalf("mines = %d", eidos.Mines)
	}
}

func TestAppContractRestrictsActions(t *testing.T) {
	c := newTestChain(t)
	app := NewAppContract(BetDiceTasks, "removetask", "log")
	if err := c.SetContract(BetDiceTasks, app); err != nil {
		t.Fatal(err)
	}
	c.PushTransaction(NewAction(BetDiceTasks, MustName("removetask"), MustName("alice"), nil))
	c.PushTransaction(NewAction(BetDiceTasks, MustName("hackattempt"), MustName("alice"), nil))
	blk := c.ProduceBlock()
	if len(blk.Transactions) != 1 {
		t.Fatalf("block txs = %d, want 1", len(blk.Transactions))
	}
	if app.Calls[MustName("removetask")] != 1 {
		t.Fatal("removetask not recorded")
	}
}

func TestDefaultConfigScale(t *testing.T) {
	cfg := DefaultConfig(1000)
	if cfg.BlockInterval != 500*time.Second {
		t.Fatalf("scaled interval = %v", cfg.BlockInterval)
	}
	if DefaultConfig(0).BlockInterval != 500*time.Millisecond {
		t.Fatal("scale floor broken")
	}
}
