package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// washScenario builds a WhaleEx-like trade set: a small ring of bots
// self-trading heavily plus organic trades between distinct accounts.
func washScenario() []DEXTrade {
	var trades []DEXTrade
	// Five bots, 40 self-trades each: balanced buy/sell in equal amounts,
	// so net balance change is zero despite the turnover.
	bots := []string{"bot1", "bot2", "bot3", "bot4", "bot5"}
	for _, b := range bots {
		for i := 0; i < 40; i++ {
			trades = append(trades, DEXTrade{Buyer: b, Seller: b, Currency: "EOS", Amount: 10})
		}
	}
	// Organic tail: 30 genuine trades between distinct low-volume accounts.
	for i := 0; i < 30; i++ {
		trades = append(trades, DEXTrade{
			Buyer:    "organic-buyer",
			Seller:   "organic-seller",
			Currency: "EOS",
			Amount:   1,
		})
	}
	return trades
}

func TestAnalyzeWashTradesEmpty(t *testing.T) {
	rep := AnalyzeWashTrades(nil, 5)
	if rep.TotalTrades != 0 || rep.SelfTradeShare != 0 || len(rep.TopAccounts) != 0 {
		t.Fatalf("empty input produced non-empty report: %+v", rep)
	}
}

func TestAnalyzeWashTradesSelfTradeShare(t *testing.T) {
	trades := washScenario()
	rep := AnalyzeWashTrades(trades, 5)
	if rep.TotalTrades != int64(len(trades)) {
		t.Fatalf("TotalTrades = %d, want %d", rep.TotalTrades, len(trades))
	}
	// 200 of 230 trades are self-trades.
	want := 200.0 / 230.0
	if math.Abs(rep.SelfTradeShare-want) > 1e-9 {
		t.Fatalf("SelfTradeShare = %f, want %f", rep.SelfTradeShare, want)
	}
}

func TestAnalyzeWashTradesTopAccounts(t *testing.T) {
	rep := AnalyzeWashTrades(washScenario(), 5)
	if len(rep.TopAccounts) != 5 {
		t.Fatalf("TopAccounts = %d entries, want 5", len(rep.TopAccounts))
	}
	for _, w := range rep.TopAccounts {
		// The five bots dominate by trade count and self-trade 100 %.
		if w.Account == "organic-buyer" || w.Account == "organic-seller" {
			t.Fatalf("organic account %s ranked in top 5", w.Account)
		}
		if w.SelfTradeShare != 1 {
			t.Errorf("bot %s self-trade share %f, want 1", w.Account, w.SelfTradeShare)
		}
		if w.Trades != 40 {
			t.Errorf("bot %s trades = %d, want 40", w.Account, w.Trades)
		}
	}
	// 200 of 230 trades involve a top-5 account.
	want := 200.0 / 230.0
	if math.Abs(rep.Top5Share-want) > 1e-9 {
		t.Fatalf("Top5Share = %f, want %f", rep.Top5Share, want)
	}
}

func TestAnalyzeWashTradesBalanceChanges(t *testing.T) {
	trades := washScenario()
	rep := AnalyzeWashTrades(trades, 5)
	changes := balanceChanges(trades, rep.TopAccounts)
	if len(changes) != 5 {
		t.Fatalf("balance changes = %d entries, want 5", len(changes))
	}
	for _, bc := range changes {
		// Pure self-trading nets to zero in every traded currency — the
		// wash fingerprint the paper highlights.
		if bc.currencies != 1 {
			t.Errorf("%s traded %d currencies, want 1", bc.account, bc.currencies)
		}
		if bc.unchanged != bc.currencies {
			t.Errorf("%s: %d/%d currencies unchanged, want all", bc.account, bc.unchanged, bc.currencies)
		}
	}
}

// TestBalanceChangesIndependentOfTradeOrder: a merge appends trades in
// shard order, and the flows are integer sums, so any order counts the
// same. bot's net is 1.007 − 0.993 of a 2.000 turnover — exactly the 0.7 %
// threshold, where a float sum landed on it or just past depending on the
// order the legs were added in.
func TestBalanceChangesIndependentOfTradeOrder(t *testing.T) {
	trades := []DEXTrade{
		{Buyer: "bot", Seller: "x", Currency: "EOS", Precision: 3, Amount: 400},
		{Buyer: "bot", Seller: "y", Currency: "EOS", Precision: 3, Amount: 600},
		{Buyer: "bot", Seller: "z", Currency: "EOS", Precision: 3, Amount: 7},
		{Buyer: "w", Seller: "bot", Currency: "EOS", Precision: 3, Amount: 993},
	}
	top := AnalyzeWashTrades(trades, 1).TopAccounts
	want := balanceChanges(trades, top)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 24; i++ {
		perm := slices.Clone(trades)
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		if got := balanceChanges(perm, top); !slices.Equal(got, want) {
			t.Fatalf("order %v: %+v, want %+v", perm, got, want)
		}
	}
}

// TestBalanceChangeExactAtSevenPerMille: "unchanged" is |net| ≤ 7/1000 of
// turnover in exact integers. A net of exactly 7/1000 counts and 8/1000
// does not — at amounts of one unit and at amounts of MaxInt64, whose sums
// pass int64 after two trades.
func TestBalanceChangeExactAtSevenPerMille(t *testing.T) {
	for _, unit := range []int64{1, math.MaxInt64} {
		for _, c := range []struct {
			bought, sold int
			unchanged    int
		}{
			{1007, 993, 1}, // net 14 of 2000: exactly 7/1000
			{993, 1007, 1}, // the same, sold side larger
			{1008, 992, 0}, // net 16 of 2000: 8/1000
			{0, 0, 0},      // no turnover is no "unchanged" balance
		} {
			var trades []DEXTrade
			for i := 0; i < c.bought; i++ {
				trades = append(trades, DEXTrade{Buyer: "bot", Seller: "x", Currency: "EOS", Precision: 4, Amount: unit})
			}
			for i := 0; i < c.sold; i++ {
				trades = append(trades, DEXTrade{Buyer: "y", Seller: "bot", Currency: "EOS", Precision: 4, Amount: unit})
			}
			if c.bought+c.sold == 0 {
				trades = []DEXTrade{{Buyer: "bot", Seller: "x", Currency: "EOS", Precision: 4, Amount: 0}}
			}
			got := balanceChanges(trades, []WashTrader{{Account: "bot"}})
			if got[0].currencies != 1 || got[0].unchanged != c.unchanged {
				t.Errorf("unit %d, bought %d, sold %d: %+v, want 1 currency, %d unchanged",
					unit, c.bought, c.sold, got[0], c.unchanged)
			}
		}
	}
	// A symbol is its code and its precision: 1.000 EOS bought and 1.0000
	// EOS sold are two currencies, each moved one way.
	got := balanceChanges([]DEXTrade{
		{Buyer: "bot", Seller: "x", Currency: "EOS", Precision: 3, Amount: 1000},
		{Buyer: "y", Seller: "bot", Currency: "EOS", Precision: 4, Amount: 10000},
	}, []WashTrader{{Account: "bot"}})
	if got[0].currencies != 2 || got[0].unchanged != 0 {
		t.Errorf("two precisions of one code: %+v, want 2 currencies, none unchanged", got[0])
	}
}

func TestAnalyzeWashTradesDirectionalFlowsAreNotWash(t *testing.T) {
	// One account only buys: its net change equals its turnover, so it
	// must NOT count as unchanged.
	var trades []DEXTrade
	for i := 0; i < 10; i++ {
		trades = append(trades, DEXTrade{Buyer: "whale", Seller: "seller", Currency: "EOS", Amount: 5})
	}
	rep := AnalyzeWashTrades(trades, 1)
	if rep.SelfTradeShare != 0 {
		t.Fatalf("SelfTradeShare = %f, want 0", rep.SelfTradeShare)
	}
	changes := balanceChanges(trades, rep.TopAccounts)
	if len(changes) != 1 {
		t.Fatalf("balance changes: %+v", changes)
	}
	if bc := changes[0]; bc.unchanged != 0 {
		t.Fatalf("directional flow reported as unchanged: %+v", bc)
	}
}

func TestAnalyzeWashTradesTopKClamped(t *testing.T) {
	trades := []DEXTrade{{Buyer: "a", Seller: "b", Currency: "EOS", Amount: 1}}
	rep := AnalyzeWashTrades(trades, 10)
	if len(rep.TopAccounts) != 2 {
		t.Fatalf("TopAccounts = %d, want the 2 accounts present", len(rep.TopAccounts))
	}
}

func TestConcentration(t *testing.T) {
	// Uniform activity: Gini 0; one dominant account: high top-1 share.
	uniform := []float64{1, 1, 1, 1}
	c := concentration(uniform, 2)
	if c.Accounts != 4 || c.K != 2 {
		t.Fatalf("stats: %+v", c)
	}
	if c.Gini > 0.01 {
		t.Errorf("uniform Gini = %f, want ~0", c.Gini)
	}
	if math.Abs(c.TopKShare-0.5) > 1e-9 {
		t.Errorf("uniform top-2 share = %f, want 0.5", c.TopKShare)
	}

	skewed := []float64{97, 1, 1, 1}
	c = concentration(skewed, 1)
	if c.TopKShare < 0.9 {
		t.Errorf("skewed top-1 share = %f, want ~0.97", c.TopKShare)
	}
	if c.Gini < 0.5 {
		t.Errorf("skewed Gini = %f, want high", c.Gini)
	}
}
