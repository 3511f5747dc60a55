package core

import (
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"

	"repro/internal/stats"
	"repro/internal/wire"
)

// EOS action names the paper's Figure 1 groups under "Account actions" and
// "Other actions" (everything defined by system contracts).
var eosAccountActions = map[string]bool{
	"bidname": true, "deposit": true, "newaccount": true,
	"updateauth": true, "linkauth": true,
}

var eosOtherSystemActions = map[string]bool{
	"delegatebw": true, "buyrambytes": true, "undelegatebw": true,
	"rentcpu": true, "voteproducer": true, "buyram": true, "sellram": true,
}

// EOSCategory buckets the Figure 1 rows.
type EOSCategory string

// Figure 1 categories for EOS.
const (
	EOSCatTransfer EOSCategory = "P2P transaction"
	EOSCatAccount  EOSCategory = "Account actions"
	EOSCatOther    EOSCategory = "Other actions"
	EOSCatOthers   EOSCategory = "Others"
)

// EOSShard is the mutable aggregate state for a partition of EOS blocks.
// A shard is owned by exactly one goroutine (no internal locking); shards
// over disjoint block sets merge with Merge, and because every statistic a
// shard keeps is order-independent (counters, count maps, time buckets,
// unordered trade sets), folding the same blocks through any number of
// shards in any interleaving produces the same aggregate. EOSAggregator
// wraps one shard behind a mutex for callers that want the classic shared
// aggregator surface.
type EOSShard struct {
	// TokenContracts are accounts implementing the standard token
	// interface; their "transfer" actions count as P2P transactions.
	// Shards spawned from one aggregator share these read-only tables.
	TokenContracts map[string]bool
	// ContractLabels maps the top contracts to app categories (Betting,
	// Games, Tokens, Exchange, Pornography, Others) for Figure 3a. The
	// paper labeled the top 100 contracts manually.
	ContractLabels map[string]string
	// EIDOSContract is the boomerang case-study contract.
	EIDOSContract string

	Blocks       int64
	Transactions int64
	Actions      int64

	ActionsByName     map[string]int64      // Figure 1 rows
	ActionsByCategory map[EOSCategory]int64 // Figure 1 groups
	Series            *stats.TimeSeries     // Figure 3a (label = app category)

	// ReceivedByContract counts actions addressed to each contract, with a
	// per-action breakdown (Figure 4).
	ReceivedByContract map[string]map[string]int64
	// SentPairs counts sender→receiver(contract) actions (Figure 5).
	SentPairs map[string]map[string]int64

	// Wash-trade inputs: every verifytrade2-style DEX settlement. The
	// slice order depends on ingestion interleaving, but every consumer
	// (AnalyzeWashTrades) reduces it order-independently.
	Trades []DEXTrade
	// Boomerang inputs: transfer legs per transaction for §4.1.
	boomerangs int64
	// EIDOS bookkeeping.
	eidosActions int64

	// VolumeBySymbol sums transferred token amounts per symbol — the
	// paper's "financial volume" dimension of throughput. Boomerang
	// volume (EOS merely bounced off the EIDOS contract) is tracked
	// separately to show how much of the apparent volume is circular.
	// Float sums round with accumulation order, so these two are
	// progress-line material, never part of the deterministic figures.
	VolumeBySymbol  map[string]float64
	BoomerangVolume float64

	FirstBlockTime, LastBlockTime time.Time

	// covered is the block range this shard aggregated, when known: set by
	// SetCovered before a distributed crawl emits the shard and validated
	// against overlap on Merge. In-process ingest shards leave it zero
	// (unknown) and merge without range bookkeeping.
	covered BlockRange

	// legScratch is reused for per-transaction transfer legs, keeping the
	// boomerang check allocation-free per transaction.
	legScratch []transferLeg
}

// EOSAggregator ingests crawled EOS blocks and accumulates every statistic
// the paper reports for EOS (Figures 1, 2, 3a, 4, 5 and the §4.1 case
// studies). It is a thin locked wrapper around one EOSShard; concurrent
// writers either share it (IngestBatch folds a batch under the lock) or
// fold into private states from NewState, merged back with MergeState.
type EOSAggregator struct {
	mu sync.Mutex
	EOSShard
}

// DEXTrade is one settled on-chain trade (WhaleEx verifytrade2).
type DEXTrade struct {
	Buyer, Seller string
	Currency      string
	Amount        float64
}

// NewEOSAggregator builds an aggregator with the default labeling used
// throughout the repo (matching the simulated workload's contracts).
func NewEOSAggregator(origin time.Time, bucket time.Duration) *EOSAggregator {
	a := &EOSAggregator{}
	a.EOSShard.applyDefaultTables()
	a.EOSShard.init(origin, bucket)
	return a
}

// applyDefaultTables installs the repo's default classification tables —
// the paper labeled the top 100 contracts manually; these match the
// simulated workload's contracts. The tables are configuration, shared
// read-only by every shard spawned from one aggregator, and never part of
// serialized shard state: a decoded shard gets the decoder's own tables.
func (s *EOSShard) applyDefaultTables() {
	s.TokenContracts = map[string]bool{
		"eosio.token": true, "eidosonecoin": true, "lynxtoken123": true,
	}
	s.ContractLabels = map[string]string{
		"eosio.token":  "Tokens",
		"eidosonecoin": "Tokens",
		"lynxtoken123": "Tokens",
		"betdicetasks": "Betting", "betdicegroup": "Betting",
		"betdiceadmin": "Betting", "betdicebacca": "Betting",
		"betdicesicbo": "Betting", "bluebetproxy": "Betting",
		"bluebettexas": "Betting", "bluebetjacks": "Betting",
		"bluebetbcrat": "Betting",
		"whaleextrust": "Exchange",
		"pornhashbaby": "Pornography",
		"eossanguoone": "Games",
	}
	s.EIDOSContract = "eidosonecoin"
}

// init allocates a shard's mutable containers, leaving the shared
// classification tables to the caller.
func (s *EOSShard) init(origin time.Time, bucket time.Duration) {
	s.ActionsByName = make(map[string]int64)
	s.ActionsByCategory = make(map[EOSCategory]int64)
	s.Series = stats.NewTimeSeries(origin, bucket)
	s.ReceivedByContract = make(map[string]map[string]int64)
	s.SentPairs = make(map[string]map[string]int64)
	s.VolumeBySymbol = make(map[string]float64)
}

// NewState spawns an empty private shard behind the chain-agnostic
// ShardState contract, sharing the aggregator's read-only classification
// tables and series geometry. The caller owns it exclusively until
// MergeState.
func (a *EOSAggregator) NewState() ShardState {
	s := &EOSShard{
		TokenContracts: a.TokenContracts,
		ContractLabels: a.ContractLabels,
		EIDOSContract:  a.EIDOSContract,
	}
	s.init(a.Series.Origin(), a.Series.Width())
	return s
}

// MergeState folds a ShardState produced by NewState (or decoded from a
// shard blob with the same window) into the aggregator under one lock
// acquisition and resets it. Merging states in any order yields the same
// aggregate: every shard statistic is a sum, a count map, a time bucket or
// an unordered record set.
func (a *EOSAggregator) MergeState(st ShardState) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.EOSShard.Merge(st)
}

// mergeCounts adds src's counters into dst.
func mergeCounts[K comparable](dst, src map[K]int64) {
	for k, v := range src {
		dst[k] += v
	}
}

// mergeNested adds src's nested counters into dst.
func mergeNested(dst, src map[string]map[string]int64) {
	for outer, m := range src {
		d := dst[outer]
		if d == nil {
			d = make(map[string]int64, len(m))
			dst[outer] = d
		}
		for inner, v := range m {
			d[inner] += v
		}
	}
}

// mergeWindow widens (first, last) to cover (f, l).
func mergeWindow(first, last *time.Time, f, l time.Time) {
	if !f.IsZero() && (first.IsZero() || f.Before(*first)) {
		*first = f
	}
	if l.After(*last) {
		*last = l
	}
}

// Chain names the shard's chain for the ShardState contract.
func (s *EOSShard) Chain() string { return "eos" }

// Window returns the shard's time-series geometry.
func (s *EOSShard) Window() Window {
	return Window{Origin: s.Series.Origin(), Bucket: s.Series.Width()}
}

// Covered returns the block range this shard aggregated, when known.
func (s *EOSShard) Covered() BlockRange { return s.covered }

// SetCovered records the block range the shard aggregated.
func (s *EOSShard) SetCovered(r BlockRange) { s.covered = r }

// Merge implements ShardState: it validates chain, window and covered-range
// compatibility, then folds src into s and resets it.
func (s *EOSShard) Merge(src ShardState) error {
	typed, cov, err := mergeAsShard[*EOSShard](s, src)
	if err != nil {
		return err
	}
	s.merge(typed)
	s.covered = cov
	return nil
}

// merge folds src into s. src must cover blocks disjoint from s's (each
// block ingested into exactly one shard); afterwards src is reset so a
// stale alias cannot double-merge it.
func (s *EOSShard) merge(src *EOSShard) {
	s.Blocks += src.Blocks
	s.Transactions += src.Transactions
	s.Actions += src.Actions
	mergeCounts(s.ActionsByName, src.ActionsByName)
	mergeCounts(s.ActionsByCategory, src.ActionsByCategory)
	s.Series.Merge(src.Series)
	mergeNested(s.ReceivedByContract, src.ReceivedByContract)
	mergeNested(s.SentPairs, src.SentPairs)
	s.Trades = append(s.Trades, src.Trades...)
	s.boomerangs += src.boomerangs
	s.eidosActions += src.eidosActions
	for sym, v := range src.VolumeBySymbol {
		s.VolumeBySymbol[sym] += v
	}
	s.BoomerangVolume += src.BoomerangVolume
	mergeWindow(&s.FirstBlockTime, &s.LastBlockTime, src.FirstBlockTime, src.LastBlockTime)
	origin, width := src.Series.Origin(), src.Series.Width()
	*src = EOSShard{
		TokenContracts: src.TokenContracts,
		ContractLabels: src.ContractLabels,
		EIDOSContract:  src.EIDOSContract,
	}
	src.init(origin, width)
}

// eosBlockTime parses the nodeos timestamp format.
func eosBlockTime(b *wire.EOSBlock) (time.Time, error) {
	return time.Parse(wire.EOSTimestampLayout, b.Timestamp)
}

// IngestBatch folds a batch of decoded blocks into a privately-owned shard
// — no locking; the shard's owner is the only writer.
func (s *EOSShard) IngestBatch(batch []any) error {
	blocks, times, err := parseBatch(batch, "eos", eosBlockTime)
	if err != nil {
		return err
	}
	for i, b := range blocks {
		s.ingest(b, times[i])
	}
	return nil
}

// IngestBatch folds a batch of decoded blocks into the aggregator, one
// lock acquisition for the whole batch. Assertion and timestamp parsing
// happen before the lock is taken.
func (a *EOSAggregator) IngestBatch(batch []any) error {
	blocks, times, err := parseBatch(batch, "eos", eosBlockTime)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, b := range blocks {
		a.EOSShard.ingest(b, times[i])
	}
	return nil
}

// ingest folds one block into the shard; the caller owns the shard (for an
// aggregator's embedded shard, that means holding a.mu).
func (a *EOSShard) ingest(b *wire.EOSBlock, ts time.Time) {
	a.Blocks++
	if a.FirstBlockTime.IsZero() || ts.Before(a.FirstBlockTime) {
		a.FirstBlockTime = ts
	}
	if ts.After(a.LastBlockTime) {
		a.LastBlockTime = ts
	}

	for ti := range b.Transactions {
		trx := &b.Transactions[ti]
		a.Transactions++
		transfersSeen := a.legScratch[:0]
		for ai := range trx.Actions {
			act := &trx.Actions[ai]
			token := a.TokenContracts[act.Account]
			a.Actions++
			a.ActionsByName[figure1Name(act, token)]++
			a.ActionsByCategory[classify(act, token)]++
			a.Series.Add(ts, a.label(act.Account), 1)

			recv := a.ReceivedByContract[act.Account]
			if recv == nil {
				recv = make(map[string]int64)
				a.ReceivedByContract[act.Account] = recv
			}
			recv[act.Name]++

			if act.Actor != "" {
				pairs := a.SentPairs[act.Actor]
				if pairs == nil {
					pairs = make(map[string]int64)
					a.SentPairs[act.Actor] = pairs
				}
				pairs[act.Account]++
			}

			switch act.Name {
			case "verifytrade2":
				digits, sym, _ := splitQuantity(act.Quantity)
				a.Trades = append(a.Trades, DEXTrade{
					Buyer: act.Buyer, Seller: act.Seller,
					Currency: sym, Amount: amountOf(digits),
				})
			case "transfer":
				transfersSeen = append(transfersSeen, transferLeg{
					From: act.From, To: act.To, Quantity: act.Quantity,
				})
				eidosLeg := act.From == a.EIDOSContract || act.To == a.EIDOSContract
				if eidosLeg || act.Account == a.EIDOSContract {
					a.eidosActions++
				}
				if digits, sym, ok := splitQuantity(act.Quantity); ok {
					amount := amountOf(digits)
					a.VolumeBySymbol[sym] += amount
					if sym == "EOS" && eidosLeg {
						a.BoomerangVolume += amount
					}
				}
			}
		}
		if isBoomerang(transfersSeen) {
			a.boomerangs++
		}
		a.legScratch = transfersSeen
	}
}

type transferLeg struct{ From, To, Quantity string }

// isBoomerang detects the EIDOS pattern: within one transaction, a transfer
// A→B is mirrored by B→A with the identical quantity (the refund leg).
func isBoomerang(legs []transferLeg) bool {
	for i, x := range legs {
		for _, y := range legs[i+1:] {
			if x.From == y.To && x.To == y.From && x.Quantity == y.Quantity {
				return true
			}
		}
	}
	return false
}

// figure1Name maps an action to its Figure 1 row: system-contract and
// token-contract actions keep their name, everything else is "others".
// token says the action's account is one of the shard's TokenContracts.
func figure1Name(act *wire.EOSAction, token bool) string {
	if act.Account == "eosio" || token {
		return act.Name
	}
	return "others"
}

func classify(act *wire.EOSAction, token bool) EOSCategory {
	if token && act.Name == "transfer" {
		return EOSCatTransfer
	}
	if act.Account == "eosio" || token {
		if eosAccountActions[act.Name] {
			return EOSCatAccount
		}
		if eosOtherSystemActions[act.Name] {
			return EOSCatOther
		}
		if act.Name == "open" || act.Name == "close" || act.Name == "issue" ||
			act.Name == "create" || act.Name == "retire" {
			return EOSCatAccount
		}
	}
	return EOSCatOthers
}

// label resolves the contract's app category for the Figure 3a series.
func (a *EOSShard) label(contract string) string {
	if l, ok := a.ContractLabels[contract]; ok {
		return l
	}
	return "Others"
}

// splitQuantity cuts an EOS asset string ("1.0000 EOS") into its amount and
// its symbol without allocating. ok only when the string is exactly two
// fields as strings.Fields counts them — runs of Unicode white space
// separate, leading and trailing space is dropped — and both are "" when it
// is not.
func splitQuantity(quantity string) (amount, symbol string, ok bool) {
	amount, rest := nextField(quantity)
	symbol, rest = nextField(rest)
	if extra, _ := nextField(rest); symbol == "" || extra != "" {
		return "", "", false
	}
	return amount, symbol, true
}

// nextField returns s's first white-space-delimited field ("" when s has
// none) and what follows it.
func nextField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// amountOf reads the decimal in a quantity's amount field, ignoring every
// rune that is neither a digit nor the point.
func amountOf(digits string) float64 {
	var v float64
	var intPart, fracPart int64
	var fracDigits int
	seenDot := false
	for _, c := range digits {
		switch {
		case c == '.':
			seenDot = true
		case c >= '0' && c <= '9':
			if seenDot {
				fracPart = fracPart*10 + int64(c-'0')
				fracDigits++
			} else {
				intPart = intPart*10 + int64(c-'0')
			}
		}
	}
	v = float64(intPart)
	scale := 1.0
	for i := 0; i < fracDigits; i++ {
		scale *= 10
	}
	v += float64(fracPart) / scale
	return v
}

// TransferShare returns the fraction of actions that are token transfers
// (the paper: 91.6 %).
func (a *EOSAggregator) TransferShare() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.Actions == 0 {
		return 0
	}
	return float64(a.ActionsByName["transfer"]) / float64(a.Actions)
}

// EIDOSShare returns the fraction of actions touching the EIDOS contract.
func (a *EOSAggregator) EIDOSShare() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.Actions == 0 {
		return 0
	}
	return float64(a.eidosActions) / float64(a.Actions)
}

// BoomerangTransactions returns how many transactions exhibited the
// refund-mirror pattern.
func (a *EOSAggregator) BoomerangTransactions() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.boomerangs
}

// TopReceivers returns the k contracts with the most received actions
// together with their per-action breakdown (Figure 4).
func (a *EOSAggregator) TopReceivers(k int) []ContractProfile {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ContractProfile, 0, len(a.ReceivedByContract))
	for contract, actions := range a.ReceivedByContract {
		p := ContractProfile{Contract: contract, Label: a.label(contract)}
		for name, n := range actions {
			p.Total += n
			p.Actions = append(p.Actions, ActionCount{Name: name, Count: n})
		}
		sort.Slice(p.Actions, func(i, j int) bool {
			if p.Actions[i].Count != p.Actions[j].Count {
				return p.Actions[i].Count > p.Actions[j].Count
			}
			return p.Actions[i].Name < p.Actions[j].Name
		})
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Contract < out[j].Contract
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// ContractProfile is one Figure 4 row.
type ContractProfile struct {
	Contract string
	Label    string
	Total    int64
	Actions  []ActionCount
}

// ActionCount pairs an action name with its count.
type ActionCount struct {
	Name  string
	Count int64
}

// TopSenderPairs returns the k senders with the most outgoing actions and,
// for each, their top receiver contracts (Figure 5).
func (a *EOSAggregator) TopSenderPairs(k, receiversPer int) []SenderProfile {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]SenderProfile, 0, len(a.SentPairs))
	for sender, pairs := range a.SentPairs {
		p := SenderProfile{Sender: sender, UniqueReceivers: len(pairs)}
		for recv, n := range pairs {
			p.Sent += n
			p.Receivers = append(p.Receivers, ReceiverCount{Receiver: recv, Count: n})
		}
		sort.Slice(p.Receivers, func(i, j int) bool {
			if p.Receivers[i].Count != p.Receivers[j].Count {
				return p.Receivers[i].Count > p.Receivers[j].Count
			}
			return p.Receivers[i].Receiver < p.Receivers[j].Receiver
		})
		if receiversPer < len(p.Receivers) {
			p.Receivers = p.Receivers[:receiversPer]
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sent != out[j].Sent {
			return out[i].Sent > out[j].Sent
		}
		return out[i].Sender < out[j].Sender
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// SenderProfile is one Figure 5 row.
type SenderProfile struct {
	Sender          string
	Sent            int64
	UniqueReceivers int
	Receivers       []ReceiverCount
}

// ReceiverCount pairs a receiver with the actions sent to it.
type ReceiverCount struct {
	Receiver string
	Count    int64
}
