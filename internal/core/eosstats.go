package core

import (
	"math"
	"sort"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/stats"
	"repro/internal/wire"
)

// Figure 3a's app categories. A contract's class holds one as an index
// into eosLabels, and the fold counts a block's actions per label before
// adding the counts to the series.
const (
	labelOthers = iota // the zero class: a contract eosContracts lacks
	labelTokens
	labelBetting
	labelExchange
	labelPornography
	labelGames
)

var eosLabels = [...]string{
	labelOthers: "Others", labelTokens: "Tokens", labelBetting: "Betting",
	labelExchange: "Exchange", labelPornography: "Pornography", labelGames: "Games",
}

// eosContractClass is what the fold knows of a contract: whether it
// implements the standard token interface (its "transfer" actions count as
// P2P transactions) and its Figure 3a label.
type eosContractClass struct {
	token bool
	label uint8
}

// eosContracts classifies the contracts the fold knows; any other is an
// "Others" non-token contract. The paper labeled the top 100 contracts
// manually; these match the simulated workload's. The table is
// configuration, read-only and never part of serialized shard state.
var eosContracts = map[string]eosContractClass{
	"eosio.token":  {token: true, label: labelTokens},
	"eidosonecoin": {token: true, label: labelTokens},
	"lynxtoken123": {token: true, label: labelTokens},
	"betdicetasks": {label: labelBetting}, "betdicegroup": {label: labelBetting},
	"betdiceadmin": {label: labelBetting}, "betdicebacca": {label: labelBetting},
	"betdicesicbo": {label: labelBetting}, "bluebetproxy": {label: labelBetting},
	"bluebettexas": {label: labelBetting}, "bluebetjacks": {label: labelBetting},
	"bluebetbcrat": {label: labelBetting},
	"whaleextrust": {label: labelExchange},
	"pornhashbaby": {label: labelPornography},
	"eossanguoone": {label: labelGames},
}

// eidosContract is the boomerang case-study contract.
const eidosContract = "eidosonecoin"

// EOSShard is the mutable aggregate state for a partition of EOS blocks.
// A shard is owned by exactly one goroutine (no internal locking); shards
// over disjoint block sets merge with Merge, and because every statistic a
// shard keeps is order-independent (counters, count maps, time buckets,
// unordered trade sets), folding the same blocks through any number of
// shards in any interleaving produces the same aggregate. It accumulates
// every statistic the paper reports for EOS (Figures 1, 2, 3a, 4, 5 and the
// §4.1 case studies); the figure queries read it under the same single-owner
// contract as Summary.
type EOSShard struct {
	Blocks       int64
	Transactions int64
	Actions      int64

	ActionsByName map[string]int64  // Figure 1 rows
	Series        *stats.TimeSeries // Figure 3a (label = app category)

	// ReceivedByContract counts actions addressed to each contract, with a
	// per-action breakdown (Figure 4).
	ReceivedByContract map[string]map[string]int64
	// SentPairs counts sender→receiver(contract) actions (Figure 5).
	SentPairs map[string]map[string]int64

	// Wash-trade inputs: every verifytrade2-style DEX settlement. The
	// slice order depends on ingestion interleaving, but every consumer
	// reduces it order-independently: AnalyzeWashTrades counts, and the
	// §4.1 balance changes sum integers.
	Trades []DEXTrade
	// Boomerang inputs: transfer legs per transaction for §4.1.
	boomerangs int64
	// EIDOS bookkeeping.
	eidosActions int64

	// volume sums the quantities of every EOS transfer (the system
	// token's symbol, 4,EOS) in 10⁻⁴ EOS — the paper's "financial volume"
	// dimension of throughput. boomerangVolume is the part that merely
	// bounced off the EIDOS contract, to show how much of it is circular.
	// Both are exact integer sums, the same in any fold order; a sum that
	// would pass int64 is not wrapped but becomes volumeOverflow.
	volume, boomerangVolume int64

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

// DEXTrade is one settled on-chain trade (WhaleEx verifytrade2). Amount is
// the quantity's digits read as one integer, in units of 10^-Precision
// Currency: a symbol is its code and its precision, as EOSIO defines it.
type DEXTrade struct {
	Buyer, Seller string
	Currency      string
	Precision     int
	Amount        int64
}

// eosPrecision is the system token's precision: 4,EOS.
const eosPrecision = 4

// volumeOverflow stands in for an EOS volume sum that would pass int64.
// Every amount is non-negative, so any negative sum means the same, and
// §4.1 prints the refusal instead of a number.
const volumeOverflow = -1

// addVolume adds units to a volume sum, which becomes volumeOverflow — and
// stays it — instead of wrapping past int64.
func addVolume(sum *int64, units int64) {
	if *sum < 0 || units < 0 || units > math.MaxInt64-*sum {
		*sum = volumeOverflow
		return
	}
	*sum += units
}

// blank returns an empty shard with s's window.
func (s *EOSShard) blank() EOSShard {
	var n EOSShard
	n.init(s.Series.Origin(), s.Series.Width())
	return n
}

// init allocates a shard's mutable containers.
func (s *EOSShard) init(origin time.Time, bucket time.Duration) {
	s.ActionsByName = make(map[string]int64)
	s.Series = stats.NewTimeSeries(origin, bucket)
	s.ReceivedByContract = make(map[string]map[string]int64)
	s.SentPairs = make(map[string]map[string]int64)
}

// mergeCounts adds src's counters into dst.
func mergeCounts[K comparable](dst, src map[K]int64) {
	for k, v := range src {
		dst[k] += v
	}
}

// mergeNested adds src's nested counters into dst, handing over each inner
// map dst lacks instead of copying it: dst owns it afterwards, so src must
// not be folded into again. Every shard merge ends by resetting its source
// (*src = src.blank()), which is what makes the hand-over safe.
func mergeNested(dst, src map[string]map[string]int64) {
	for outer, m := range src {
		if d := dst[outer]; d != nil {
			mergeCounts(d, m)
		} else {
			dst[outer] = m
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
// block ingested into exactly one shard). The inner count maps s lacks are
// handed over, not copied (mergeNested), so src ends reset to a blank shard:
// nothing it holds afterwards is shared with s, and a stale alias cannot
// double-merge it.
func (s *EOSShard) merge(src *EOSShard) {
	s.Blocks += src.Blocks
	s.Transactions += src.Transactions
	s.Actions += src.Actions
	mergeCounts(s.ActionsByName, src.ActionsByName)
	s.Series.Merge(src.Series)
	mergeNested(s.ReceivedByContract, src.ReceivedByContract)
	mergeNested(s.SentPairs, src.SentPairs)
	s.Trades = append(s.Trades, src.Trades...)
	s.boomerangs += src.boomerangs
	s.eidosActions += src.eidosActions
	addVolume(&s.volume, src.volume)
	addVolume(&s.boomerangVolume, src.boomerangVolume)
	mergeWindow(&s.FirstBlockTime, &s.LastBlockTime, src.FirstBlockTime, src.LastBlockTime)
	*src = src.blank()
}

// eosBlockTime parses the nodeos timestamp format.
func eosBlockTime(b *wire.EOSBlock) (time.Time, error) {
	return time.Parse(wire.EOSTimestampLayout, b.Timestamp)
}

// IngestBatch folds a batch of decoded blocks into a privately-owned shard
// — no locking; the shard's owner is the only writer.
func (s *EOSShard) IngestBatch(batch []any) error {
	return ingestBatch(batch, "eos", eosBlockTime, s.ingest)
}

// ingest folds one block into the shard; the caller owns the shard. Every
// action of a block shares its time bucket, so the Figure 3a labels count
// into an array that reaches the series once per block.
func (a *EOSShard) ingest(b *wire.EOSBlock, ts time.Time) {
	a.Blocks++
	if a.FirstBlockTime.IsZero() || ts.Before(a.FirstBlockTime) {
		a.FirstBlockTime = ts
	}
	if ts.After(a.LastBlockTime) {
		a.LastBlockTime = ts
	}

	var byLabel [len(eosLabels)]int64
	// Runs of actions share a contract or a sender (a token's transfers,
	// an airdrop's legs): their class and inner count maps are looked up
	// once per run.
	var contract struct {
		name  string
		class eosContractClass
		recv  map[string]int64
	}
	var sender struct {
		name  string
		pairs map[string]int64
	}
	for ti := range b.Transactions {
		trx := &b.Transactions[ti]
		a.Transactions++
		transfersSeen := a.legScratch[:0]
		for ai := range trx.Actions {
			act := &trx.Actions[ai]
			if contract.recv == nil || act.Account != contract.name {
				contract.name, contract.class = act.Account, eosContracts[act.Account]
				contract.recv = inner(a.ReceivedByContract, act.Account)
			}
			a.Actions++
			a.ActionsByName[figure1Name(act, contract.class.token)]++
			byLabel[contract.class.label]++
			contract.recv[act.Name]++

			if act.Actor != "" {
				if sender.pairs == nil || act.Actor != sender.name {
					sender.name, sender.pairs = act.Actor, inner(a.SentPairs, act.Actor)
				}
				sender.pairs[act.Account]++
			}

			switch act.Name {
			case "verifytrade2":
				digits, sym, _ := splitQuantity(act.Quantity)
				amount, precision, _ := amountOf(digits)
				a.Trades = append(a.Trades, DEXTrade{
					Buyer: act.Buyer, Seller: act.Seller,
					Currency: sym, Precision: precision, Amount: amount,
				})
			case "transfer":
				transfersSeen = append(transfersSeen, transferLeg{
					From: act.From, To: act.To, Quantity: act.Quantity,
				})
				eidosLeg := act.From == eidosContract || act.To == eidosContract
				if eidosLeg || act.Account == eidosContract {
					a.eidosActions++
				}
				if digits, sym, _ := splitQuantity(act.Quantity); sym == "EOS" {
					if amount, precision, num := amountOf(digits); num && precision == eosPrecision {
						addVolume(&a.volume, amount)
						if eidosLeg {
							addVolume(&a.boomerangVolume, amount)
						}
					}
				}
			}
		}
		if isBoomerang(transfersSeen) {
			a.boomerangs++
		}
		a.legScratch = transfersSeen
	}
	addLabels(a.Series, ts, eosLabels[:], byLabel[:])
}

// addLabels adds one block's per-label counts to a series at the block's
// time: counts[i] is labels[i]'s, and a label the block did not reach adds
// no cell.
func addLabels(s *stats.TimeSeries, ts time.Time, labels []string, counts []int64) {
	for i, n := range counts {
		if n != 0 {
			s.Add(ts, labels[i], n)
		}
	}
}

// inner returns outer's count map for key, creating it on first use.
func inner(outer map[string]map[string]int64, key string) map[string]int64 {
	m := outer[key]
	if m == nil {
		m = make(map[string]int64)
		outer[key] = m
	}
	return m
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
// token says the action's account is a token contract.
func figure1Name(act *wire.EOSAction, token bool) string {
	if act.Account == "eosio" || token {
		return act.Name
	}
	return "others"
}

// contractLabel resolves the contract's app category for Figures 3a and 4.
func contractLabel(contract string) string {
	return eosLabels[eosContracts[contract].label]
}

// splitQuantity cuts an EOS asset string ("1.0000 EOS") into its amount and
// its symbol without allocating. ok only when the string is exactly two
// fields as strings.Fields counts them — runs of Unicode white space
// separate, leading and trailing space is dropped — and both are "" when it
// is not. An ASCII string is cut in one pass over its bytes; the first
// byte past ASCII hands the whole string to the Unicode path.
func splitQuantity(quantity string) (amount, symbol string, ok bool) {
	var fields [2]string
	n, start := 0, -1
	for i := 0; i < len(quantity); i++ {
		c := quantity[i]
		switch {
		case c >= utf8.RuneSelf:
			return splitQuantityUnicode(quantity)
		case asciiSpace[c]:
			if start >= 0 {
				fields[n] = quantity[start:i]
				n, start = n+1, -1
			}
		case start < 0:
			if n == 2 {
				// A third field, whatever the rest holds.
				return "", "", false
			}
			start = i
		}
	}
	if start >= 0 {
		fields[n] = quantity[start:]
		n++
	}
	if n != 2 {
		return "", "", false
	}
	return fields[0], fields[1], true
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitQuantityUnicode is splitQuantity for a string with a byte past
// ASCII, where white space is any rune unicode.IsSpace reports.
func splitQuantityUnicode(quantity string) (amount, symbol string, ok bool) {
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

// amountOf reads a quantity's amount field as one integer — its digits
// with the point dropped, in units of 10^-precision — ignoring every byte
// that is neither a digit nor the first point; precision counts the digits
// after it. ok is false when the digits overflow an int64: such an amount
// is not a number.
func amountOf(digits string) (amount int64, precision int, ok bool) {
	seenDot := false
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c == '.' && !seenDot {
			seenDot = true
			continue
		}
		if c < '0' || c > '9' {
			continue
		}
		d := int64(c - '0')
		if amount > (math.MaxInt64-d)/10 {
			return 0, 0, false
		}
		amount = amount*10 + d
		if seenDot {
			precision++
		}
	}
	return amount, precision, true
}

// EIDOSShare returns the fraction of actions touching the EIDOS contract.
func (a *EOSShard) EIDOSShare() float64 {
	if a.Actions == 0 {
		return 0
	}
	return float64(a.eidosActions) / float64(a.Actions)
}

// TopReceivers returns the k contracts with the most received actions
// together with their per-action breakdown (Figure 4).
func (a *EOSShard) TopReceivers(k int) []ContractProfile {
	out := make([]ContractProfile, 0, len(a.ReceivedByContract))
	for contract, actions := range a.ReceivedByContract {
		p := ContractProfile{Contract: contract, Label: contractLabel(contract)}
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
func (a *EOSShard) TopSenderPairs(k, receiversPer int) []SenderProfile {
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
