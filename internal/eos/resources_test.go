package eos

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/chain"
)

func TestCPUWindowDecay(t *testing.T) {
	rs := NewResourceState()
	r := &Resources{}
	rs.Stake(r, 1_000_000, 0)
	now := chain.ObservationStart

	// Exhaust most of the allowance.
	limit := rs.accountLimitMicros(r)
	if limit <= 0 {
		t.Fatal("staked account has no allowance")
	}
	if !rs.chargeCPU(r, now, limit-1) {
		t.Fatal("charge within limit refused")
	}
	if rs.chargeCPU(r, now, 2) {
		t.Fatal("charge beyond limit accepted")
	}
	// After the decay window passes, usage resets.
	later := now.Add(rs.Window + time.Second)
	if !rs.chargeCPU(r, later, limit-1) {
		t.Fatal("window did not reset usage")
	}
}

func TestFreeQuotaOnlyWhenUncongested(t *testing.T) {
	rs := NewResourceState()
	staked := &Resources{}
	rs.Stake(staked, 1_000_000, 0) // someone must hold stake for quotas to exist
	pauper := &Resources{}

	// Normal mode: the free allowance lets zero-stake accounts act.
	if limit := rs.accountLimitMicros(pauper); limit <= 0 {
		t.Fatalf("uncongested free quota = %d", limit)
	}
	for i := 0; i < 300; i++ {
		rs.ObserveBlock(1_000_000, 1_000_000)
	}
	if !rs.Congested() {
		t.Fatal("did not congest")
	}
	// Congestion strips the free allowance: stake-proportional only.
	if limit := rs.accountLimitMicros(pauper); limit != 0 {
		t.Fatalf("congested zero-stake quota = %d, want 0", limit)
	}
	if limit := rs.accountLimitMicros(staked); limit <= 0 {
		t.Fatal("staked account lost its guarantee during congestion")
	}
}

func TestUnstakeClamps(t *testing.T) {
	rs := NewResourceState()
	r := &Resources{}
	rs.Stake(r, 100, 50)
	rs.Unstake(r, 1000, 1000) // more than staked
	if r.CPUStaked != 0 || r.NETStaked != 0 {
		t.Fatalf("negative stake: %+v", r)
	}
}

func TestRentIncreasesWeight(t *testing.T) {
	rs := NewResourceState()
	whale := &Resources{}
	rs.Stake(whale, 1_000_000_000, 0) // dominant staker so shares are small
	r := &Resources{}
	rs.Stake(r, 100, 0)
	// Evaluate under congestion, where quotas are strictly proportional.
	for i := 0; i < 300; i++ {
		rs.ObserveBlock(1_000_000, 1_000_000)
	}
	before := rs.accountLimitMicros(r)
	rs.Rent(r, 1_000_000)
	if after := rs.accountLimitMicros(r); after <= before {
		t.Fatalf("rental did not raise the quota: %d -> %d", before, after)
	}
}

func TestRAMMarketMonotonicPriceProperty(t *testing.T) {
	f := func(buys []uint16) bool {
		m := NewRAMMarket()
		prev := pricePerKB(m)
		for _, b := range buys {
			bytes := int64(b)%65536 + 1
			cost := m.BuyBytes(bytes)
			if cost < 0 {
				return false
			}
			p := pricePerKB(m)
			if p < prev { // buying RAM can only raise the price
				return false
			}
			prev = p
		}
		return m.BaseBytes > 0 && m.QuoteFunds > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRAMBuyForEOSRoundTrip(t *testing.T) {
	m := NewRAMMarket()
	bytes := m.BuyForEOS(1_000_0000)
	if bytes <= 0 {
		t.Fatal("no bytes for 100 EOS")
	}
	// A later identical purchase yields fewer bytes (price impact).
	if again := m.BuyForEOS(1_000_0000); again > bytes {
		t.Fatalf("price impact missing: %d then %d bytes", bytes, again)
	}
}

// TestProducerScheduleFairnessProperty: over full rounds, every producer
// bakes exactly BlocksPerProducer blocks per round.
func TestProducerScheduleFairnessProperty(t *testing.T) {
	f := func(seed uint8) bool {
		producers := int(seed%5) + 2
		perProducer := int(seed%3) + 1
		cfg := DefaultConfig(1000)
		cfg.NumProducers = producers
		cfg.BlocksPerProducer = perProducer
		c := New(cfg)
		counts := map[Name]int{}
		rounds := 3
		for i := 0; i < producers*perProducer*rounds; i++ {
			counts[c.ProduceBlock().Producer]++
		}
		for _, n := range counts {
			if n != perProducer*rounds {
				return false
			}
		}
		return len(counts) == producers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// pricePerKB is the RAM market's marginal price in raw EOS per KiB.
func pricePerKB(m *RAMMarket) float64 {
	return float64(m.QuoteFunds) / float64(m.BaseBytes) * 1024
}
