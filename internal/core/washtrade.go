package core

import (
	"math/big"
	"sort"

	"repro/internal/stats"
)

// WashTradeReport quantifies the §4.1 WhaleEx findings from the settled
// trades the aggregator collected.
type WashTradeReport struct {
	TotalTrades int64
	// SelfTradeShare is the fraction of trades where buyer == seller.
	SelfTradeShare float64
	// Top5Share is the fraction of trades involving (as buyer or seller)
	// one of the five most active accounts — the paper reports over 70 %.
	Top5Share float64
	// TopAccounts ranks accounts by trade involvement with their
	// self-trade ratios; the paper reports >85 % for each of the top 5.
	TopAccounts []WashTrader
}

// WashTrader is one account's wash-trading profile.
type WashTrader struct {
	Account        string
	Trades         int64
	SelfTrades     int64
	SelfTradeShare float64
}

// AnalyzeWashTrades computes the report over the aggregator's DEX trades.
// Every number in it is a count or a ratio of counts.
func AnalyzeWashTrades(trades []DEXTrade, topK int) WashTradeReport {
	var rep WashTradeReport
	rep.TotalTrades = int64(len(trades))
	if len(trades) == 0 {
		return rep
	}

	involvement := make(map[string]*WashTrader)
	get := func(acct string) *WashTrader {
		w := involvement[acct]
		if w == nil {
			w = &WashTrader{Account: acct}
			involvement[acct] = w
		}
		return w
	}
	var selfTrades int64
	for _, t := range trades {
		self := t.Buyer == t.Seller
		if self {
			selfTrades++
		}
		get(t.Buyer).Trades++
		if self {
			get(t.Buyer).SelfTrades++
		} else {
			get(t.Seller).Trades++
		}
	}
	rep.SelfTradeShare = float64(selfTrades) / float64(len(trades))

	ranked := make([]*WashTrader, 0, len(involvement))
	for _, w := range involvement {
		if w.Trades > 0 {
			w.SelfTradeShare = float64(w.SelfTrades) / float64(w.Trades)
		}
		ranked = append(ranked, w)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Trades != ranked[j].Trades {
			return ranked[i].Trades > ranked[j].Trades
		}
		return ranked[i].Account < ranked[j].Account
	})
	if topK > len(ranked) {
		topK = len(ranked)
	}
	top := ranked[:topK]
	for _, w := range top {
		rep.TopAccounts = append(rep.TopAccounts, *w)
	}

	// Share of all trades involving a top account.
	topSet := make(map[string]bool, topK)
	for _, w := range top {
		topSet[w.Account] = true
	}
	var involvingTop int64
	for _, t := range trades {
		if topSet[t.Buyer] || topSet[t.Seller] {
			involvingTop++
		}
	}
	rep.Top5Share = float64(involvingTop) / float64(len(trades))
	return rep
}

// balanceChange is a top account's per-currency net movement: of the
// currencies it traded, how many ended within 0.7 % of zero net change
// relative to turnover — near-zero movement despite enormous volume is the
// wash fingerprint.
type balanceChange struct {
	account               string
	currencies, unchanged int
}

// balanceChanges folds the top accounts' trades into what each bought and
// sold per symbol (currency and precision). The sums are big integers, so
// no run of int64 amounts can wrap them, and integer sums do not depend on
// the order the trades fold in.
func balanceChanges(trades []DEXTrade, top []WashTrader) []balanceChange {
	type symbol struct {
		currency  string
		precision int
	}
	type flows struct{ bought, sold big.Int }
	byAcct := make(map[string]map[symbol]*flows, len(top))
	for _, w := range top {
		byAcct[w.Account] = make(map[symbol]*flows)
	}
	flowsOf := func(acct string, sym symbol) *flows {
		m := byAcct[acct]
		if m == nil {
			return nil
		}
		if m[sym] == nil {
			m[sym] = new(flows)
		}
		return m[sym]
	}
	var amount big.Int
	for _, t := range trades {
		sym := symbol{t.Currency, t.Precision}
		amount.SetInt64(t.Amount)
		if f := flowsOf(t.Buyer, sym); f != nil {
			f.bought.Add(&f.bought, &amount)
		}
		if f := flowsOf(t.Seller, sym); f != nil {
			f.sold.Add(&f.sold, &amount)
		}
	}
	out := make([]balanceChange, len(top))
	for i, w := range top {
		out[i] = balanceChange{account: w.Account, currencies: len(byAcct[w.Account])}
		for _, f := range byAcct[w.Account] {
			if nearZeroNet(&f.bought, &f.sold) {
				out[i].unchanged++
			}
		}
	}
	return out
}

// nearZeroNet reports whether the net change bought − sold is within 0.7 %
// of the turnover bought + sold, a turnover of zero never: with more the
// larger side and less the smaller, |net| ≤ 7/1000 · turnover is exactly
// 993 · more ≤ 1007 · less.
func nearZeroNet(bought, sold *big.Int) bool {
	more, less := bought, sold
	if more.Cmp(less) < 0 {
		more, less = less, more
	}
	if more.Sign() <= 0 {
		return false
	}
	var lhs, rhs big.Int
	lhs.Mul(more, big.NewInt(993))
	rhs.Mul(less, big.NewInt(1007))
	return lhs.Cmp(&rhs) <= 0
}

// concentrationStats summarizes how concentrated traffic is across accounts.
type concentrationStats struct {
	Accounts  int
	Gini      float64
	TopKShare float64
	K         int
}

// concentration computes Gini and top-k share over per-account activity.
// Both statistics read one shared sorted view of the input instead of each
// re-copying and re-sorting it.
func concentration(perAccount []float64, k int) concentrationStats {
	sel := stats.GetSelector()
	sel.Load(perAccount)
	out := concentrationStats{
		Accounts:  len(perAccount),
		Gini:      sel.Gini(),
		TopKShare: sel.TopShare(k),
		K:         k,
	}
	stats.PutSelector(sel)
	return out
}
