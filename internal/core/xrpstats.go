package core

import (
	"cmp"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// xrpDropsPerXRP scales display units to drops; IOU values share the same
// 6-decimal fixed point.
const xrpDropsPerXRP = 1_000_000

// XRPAssetKey identifies an asset on the XRP ledger: a currency code and,
// for an IOU, the issuer's address ("" for native XRP). The issuer is part
// of the identity — a "BTC" from a gateway and a "BTC" from a random
// account are different assets with wildly different XRP rates.
type XRPAssetKey struct {
	Currency, Issuer string
}

// XRPExchange is one DEX fill as the explorer's Data API reports it. Base
// is the asset the resting (maker) offer sold, Counter what it received,
// both in 6-decimal fixed point; Maker and MakerSequence identify the
// maker's offer so later fills attribute to the OfferCreate that placed it.
type XRPExchange struct {
	Time                    time.Time
	Base, Counter           XRPAssetKey
	BaseValue, CounterValue int64
	Maker                   string
	MakerSequence           uint32
}

// XRPShard is the mutable aggregate state for a partition of XRP ledgers:
// one goroutine owns it, disjoint shards merge with Merge, and all of its
// statistics are order-independent (see EOSShard). It reproduces the
// paper's XRP analysis: Figure 1's type distribution, Figure 3c's
// throughput series, Figure 7's value decomposition, Figure 8's most-active
// accounts, Figure 11's IOU rate tables and Figure 12's value flows.
// Exchange records from the explorer land through AddExchanges on the
// drained aggregate, not on decode shards.
type XRPShard struct {
	Ledgers      int64
	Transactions int64
	Failed       int64

	TxByType map[string]int64  // Figure 1 rows (successful + failed)
	Series   *stats.TimeSeries // Figure 3c

	// Per-account activity for Figure 8.
	byAccount map[string]*xrpAccountAgg

	// Successful payments, for value analysis. Slice order follows
	// ingestion interleaving; every consumer reduces it order-independently.
	payments []xrpPayment

	// Offer bookkeeping for the 0.2 % fulfillment statistic.
	offersCreated  int64
	offersExecuted map[offerRef]bool // executed at placement or filled later

	exchanges []XRPExchange

	FirstLedgerTime, LastLedgerTime time.Time

	// covered is the ledger range this shard aggregated, when known (see
	// EOSShard.covered).
	covered BlockRange
}

type offerRef struct {
	Account  string
	Sequence uint32
}

type xrpAccountAgg struct {
	Total  int64
	Offers int64 // OfferCreates, successful or not
	// DestTags counts destination tags used in outgoing payments (the
	// paper's Huobi fingerprint: tag 104398 on every payment); nil until
	// the account's first tagged payment.
	DestTags map[uint32]int64
}

type xrpPayment struct {
	From, To string
	Currency string
	Issuer   string
	Value    int64
}

func (p *xrpPayment) asset() XRPAssetKey {
	return XRPAssetKey{Currency: p.Currency, Issuer: p.Issuer}
}

// blank returns an empty shard with s's window.
func (s *XRPShard) blank() XRPShard {
	var n XRPShard
	n.init(s.Series.Origin(), s.Series.Width())
	return n
}

// init allocates a shard's mutable containers.
func (s *XRPShard) init(origin time.Time, bucket time.Duration) {
	s.TxByType = make(map[string]int64)
	s.Series = stats.NewTimeSeries(origin, bucket)
	s.byAccount = make(map[string]*xrpAccountAgg)
	s.offersExecuted = make(map[offerRef]bool)
}

// Chain names the shard's chain for the ShardState contract.
func (s *XRPShard) Chain() string { return "xrp" }

// Window returns the shard's time-series geometry.
func (s *XRPShard) Window() Window {
	return Window{Origin: s.Series.Origin(), Bucket: s.Series.Width()}
}

// Covered returns the ledger range this shard aggregated, when known.
func (s *XRPShard) Covered() BlockRange { return s.covered }

// SetCovered records the ledger range the shard aggregated.
func (s *XRPShard) SetCovered(r BlockRange) { s.covered = r }

// Merge implements ShardState: it validates chain, window and covered-range
// compatibility, then folds src into s and resets it.
func (s *XRPShard) Merge(src ShardState) error {
	typed, cov, err := mergeAsShard[*XRPShard](s, src)
	if err != nil {
		return err
	}
	s.merge(typed)
	s.covered = cov
	return nil
}

// merge folds src (covering disjoint ledgers) into s and resets src, which
// the hand-over of the account aggregates and tag maps s lacks relies on.
func (s *XRPShard) merge(src *XRPShard) {
	s.Ledgers += src.Ledgers
	s.Transactions += src.Transactions
	s.Failed += src.Failed
	mergeCounts(s.TxByType, src.TxByType)
	s.Series.Merge(src.Series)
	for addr, agg := range src.byAccount {
		d := s.byAccount[addr]
		if d == nil {
			s.byAccount[addr] = agg
			continue
		}
		d.Total += agg.Total
		d.Offers += agg.Offers
		if d.DestTags == nil {
			d.DestTags = agg.DestTags
		} else {
			mergeCounts(d.DestTags, agg.DestTags)
		}
	}
	s.payments = append(s.payments, src.payments...)
	s.offersCreated += src.offersCreated
	for ref := range src.offersExecuted {
		s.offersExecuted[ref] = true
	}
	s.exchanges = append(s.exchanges, src.exchanges...)
	mergeWindow(&s.FirstLedgerTime, &s.LastLedgerTime, src.FirstLedgerTime, src.LastLedgerTime)
	*src = src.blank()
}

func xrpCloseTime(l *wire.XRPLedger) (time.Time, error) {
	return time.Parse(time.RFC3339, l.CloseTime)
}

// IngestBatch folds a batch of decoded ledgers into a privately-owned
// shard — no locking; the shard's owner is the only writer.
func (s *XRPShard) IngestBatch(batch []any) error {
	return ingestBatch(batch, "xrp", xrpCloseTime, s.ingest)
}

// ingest folds one ledger into the shard; the caller owns the shard. The
// Figure 3c outcomes count into an array that reaches the series once per
// ledger, as EOSShard.ingest's labels do.
func (a *XRPShard) ingest(l *wire.XRPLedger, ts time.Time) {
	a.Ledgers++
	if a.FirstLedgerTime.IsZero() || ts.Before(a.FirstLedgerTime) {
		a.FirstLedgerTime = ts
	}
	if ts.After(a.LastLedgerTime) {
		a.LastLedgerTime = ts
	}
	var byLabel [len(xrpLabels)]int64
	for i := range l.Transactions {
		tx := &l.Transactions[i]
		a.Transactions++
		a.TxByType[tx.TransactionType]++
		success := tx.Result == "tesSUCCESS"
		if !success {
			a.Failed++
			byLabel[xrpUnsuccessful]++
		} else {
			byLabel[xrpSeriesLabel(tx.TransactionType)]++
		}

		acct := a.byAccount[tx.Account]
		if acct == nil {
			acct = &xrpAccountAgg{}
			a.byAccount[tx.Account] = acct
		}
		acct.Total++

		switch tx.TransactionType {
		case "Payment":
			if success {
				amt := tx.Amount
				if tx.DeliveredAmount.Set {
					amt = tx.DeliveredAmount
				}
				a.payments = append(a.payments, xrpPayment{
					From: tx.Account, To: tx.Destination,
					Currency: amt.Currency, Issuer: amt.Issuer, Value: amt.Value,
				})
			}
			if tx.DestinationTag != 0 {
				if acct.DestTags == nil {
					acct.DestTags = make(map[uint32]int64)
				}
				acct.DestTags[tx.DestinationTag]++
			}
		case "OfferCreate":
			acct.Offers++
			if success {
				a.offersCreated++
				if tx.Executed {
					a.offersExecuted[offerRef{tx.Account, tx.Sequence}] = true
				}
			}
		}
	}
	addLabels(a.Series, ts, xrpLabels[:], byLabel[:])
}

// xrpLabels are Figure 3c's transaction outcomes, indexed by
// xrpSeriesLabel and xrpUnsuccessful.
var xrpLabels = [...]string{"Payment", "OfferCreate", "Others", "Unsuccessful Tx"}

// xrpUnsuccessful is the index of the label every failed transaction
// counts under, whatever its type.
const xrpUnsuccessful = 3

// xrpSeriesLabel returns a successful transaction type's index into
// xrpLabels.
func xrpSeriesLabel(txType string) int {
	switch txType {
	case "Payment":
		return 0
	case "OfferCreate":
		return 1
	default:
		return 2
	}
}

// AddExchanges feeds the explorer's trade records into the aggregate, both
// for the rate oracle and to attribute maker-side fills to resting offers.
func (a *XRPShard) AddExchanges(ex []XRPExchange) {
	a.exchanges = append(a.exchanges, ex...)
	for _, e := range ex {
		a.offersExecuted[offerRef{e.Maker, e.MakerSequence}] = true
	}
}

// rateStat is one asset's traded rate against XRP: the mean XRP paid per
// unit over its fills, and how many fills there were.
type rateStat struct {
	rate   float64
	trades int
}

// rateTable holds every asset that traded against XRP.
type rateTable map[XRPAssetKey]rateStat

// of returns the key's XRP rate: 1 for native XRP, 0 for an asset that
// never traded against XRP.
func (t rateTable) of(key XRPAssetKey) float64 {
	if key == xrpNative {
		return 1
	}
	return t[key].rate
}

var xrpNative = XRPAssetKey{Currency: "XRP"}

// xrpRate returns the asset a fill priced against native XRP and the XRP
// one unit of it fetched; ok is false when neither side is native XRP or the
// priced side moved nothing.
func (e XRPExchange) xrpRate() (asset XRPAssetKey, rate float64, ok bool) {
	switch {
	case e.Counter == xrpNative:
		return e.Base, float64(e.CounterValue) / float64(e.BaseValue), e.BaseValue > 0
	case e.Base == xrpNative:
		return e.Counter, float64(e.BaseValue) / float64(e.CounterValue), e.CounterValue > 0
	}
	return XRPAssetKey{}, 0, false
}

// rates builds the shard's rate table in one pass over its exchanges. Each
// asset's fill rates are summed in ascending order, so the table depends
// only on the set of fills — not on the order merges appended them in.
func (a *XRPShard) rates() rateTable {
	byAsset := make(map[XRPAssetKey][]float64)
	for _, e := range a.exchanges {
		if asset, rate, ok := e.xrpRate(); ok {
			byAsset[asset] = append(byAsset[asset], rate)
		}
	}
	t := make(rateTable, len(byAsset))
	for asset, rs := range byAsset {
		slices.Sort(rs)
		var sum float64
		for _, r := range rs {
			sum += r
		}
		t[asset] = rateStat{rate: sum / float64(len(rs)), trades: len(rs)}
	}
	return t
}

// ValueDecomposition is the paper's Figure 7 Sankey, as fractions of total
// throughput.
type ValueDecomposition struct {
	Total int64

	FailedShare     float64
	SuccessfulShare float64

	// Of total: successful payments split by whether the moved token has a
	// positive XRP rate.
	PaymentsWithValue float64
	PaymentsNoValue   float64

	// Of total: successful offers split by whether they ever executed.
	OffersExchanged  float64
	OffersNoExchange float64

	OthersSuccessful float64

	// EconomicShare is the headline number: payments with value plus
	// exchanged offers (the paper: ~2.3 %).
	EconomicShare float64

	// OfferFulfillmentRate is exchanged offers / successful offers
	// (the paper: ~0.2 %).
	OfferFulfillmentRate float64
	// ValuablePaymentRate is with-value / successful payments
	// (the paper: ~5.5 %, "1 in 19").
	ValuablePaymentRate float64
}

// Decompose computes Figure 7 from the ingested data.
func (a *XRPShard) Decompose() ValueDecomposition {
	var d ValueDecomposition
	d.Total = a.Transactions
	if d.Total == 0 {
		return d
	}
	total := float64(d.Total)
	d.FailedShare = float64(a.Failed) / total
	d.SuccessfulShare = 1 - d.FailedShare

	rates := a.rates()
	payOK := int64(len(a.payments))
	var payValue int64
	for _, p := range a.payments {
		if rates.of(p.asset()) > 0 {
			payValue++
		}
	}
	d.PaymentsWithValue = float64(payValue) / total
	d.PaymentsNoValue = float64(payOK-payValue) / total
	if payOK > 0 {
		d.ValuablePaymentRate = float64(payValue) / float64(payOK)
	}

	executed := min(int64(len(a.offersExecuted)), a.offersCreated)
	d.OffersExchanged = float64(executed) / total
	d.OffersNoExchange = float64(a.offersCreated-executed) / total
	if a.offersCreated > 0 {
		d.OfferFulfillmentRate = float64(executed) / float64(a.offersCreated)
	}

	othersOK := d.SuccessfulShare - (d.PaymentsWithValue + d.PaymentsNoValue + d.OffersExchanged + d.OffersNoExchange)
	if othersOK < 0 {
		othersOK = 0
	}
	d.OthersSuccessful = othersOK
	d.EconomicShare = d.PaymentsWithValue + d.OffersExchanged
	return d
}

// XRPAccountProfile is one Figure 8 row.
type XRPAccountProfile struct {
	Account string
	Total   int64
	// OfferShare is the share of its transactions that are OfferCreates;
	// the paper's top accounts all exceed 98 %.
	OfferShare float64
	// DominantDestTag is the most used destination tag (104398 for the
	// Huobi cluster), 0 when none.
	DominantDestTag uint32
}

// TopAccounts returns the k most active accounts (Figure 8).
func (a *XRPShard) TopAccounts(k int) []XRPAccountProfile {
	out := make([]XRPAccountProfile, 0, len(a.byAccount))
	for addr, agg := range a.byAccount {
		p := XRPAccountProfile{Account: addr, Total: agg.Total}
		if p.Total > 0 {
			p.OfferShare = float64(agg.Offers) / float64(p.Total)
		}
		var bestN int64
		for tag, n := range agg.DestTags {
			if n > bestN || (n == bestN && tag < p.DominantDestTag) {
				p.DominantDestTag, bestN = tag, n
			}
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Account < out[j].Account
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// trafficShares returns per-account transaction counts, for concentration
// statistics ("the 18 most active accounts are responsible for half of the
// total traffic").
func (a *XRPShard) trafficShares() []float64 {
	out := make([]float64, 0, len(a.byAccount))
	for _, agg := range a.byAccount {
		out = append(out, float64(agg.Total))
	}
	return out
}

// IssuerRate is one Figure 11a row: the average XRP rate of an issuer's
// token.
type IssuerRate struct {
	Issuer string
	Rate   float64
	Trades int
}

// IssuerRates returns the per-issuer average XRP rate for a currency code,
// sorted by rate descending (Figure 11a: BTC IOUs ranging from 36,050 XRP
// to 0 depending on the issuer).
func (a *XRPShard) IssuerRates(currency string) []IssuerRate {
	var out []IssuerRate
	for asset, r := range a.rates() {
		if asset.Currency == currency {
			out = append(out, IssuerRate{Issuer: asset.Issuer, Rate: r.rate, Trades: r.trades})
		}
	}
	slices.SortFunc(out, func(x, y IssuerRate) int {
		return cmp.Or(cmp.Compare(y.Rate, x.Rate), cmp.Compare(x.Issuer, y.Issuer))
	})
	return out
}

// RatePoint is one fill in an asset's rate series: when it happened and
// the rate against XRP in thousandths of an XRP.
type RatePoint struct {
	Time       time.Time
	RateMillis int64
}

// RateSeries returns the chronological rates of one asset against XRP
// (Figure 11b: the Myrone BTC IOU collapsing from 30,500 to 0.1), fills at
// one instant ordered by rate.
func (a *XRPShard) RateSeries(key XRPAssetKey) []RatePoint {
	var pts []RatePoint
	for _, e := range a.exchanges {
		if asset, rate, ok := e.xrpRate(); ok && asset == key {
			pts = append(pts, RatePoint{Time: e.Time, RateMillis: int64(rate * 1000)})
		}
	}
	slices.SortFunc(pts, func(x, y RatePoint) int {
		return cmp.Or(x.Time.Compare(y.Time), cmp.Compare(x.RateMillis, y.RateMillis))
	})
	return pts
}

// FlowEdge is one aggregated Figure 12 flow, denominated in XRP.
type FlowEdge struct {
	Name      string
	XRPVolume float64
}

// ValueFlow aggregates successful value-carrying payments into top sender
// clusters, top receiver clusters and per-currency XRP-denominated volumes
// (Figure 12).
type ValueFlow struct {
	TotalXRPVolume float64
	Senders        []FlowEdge
	Receivers      []FlowEdge
	Currencies     []FlowEdge
}

// ValueFlow computes Figure 12, attributing accounts to dir's clusters (to
// themselves when dir is nil) and leaving out tokens with no positive rate.
// Amounts fold as integers per (name, asset) and convert to XRP once per
// pair, summed in sorted order, so the volumes depend only on the payments.
func (a *XRPShard) ValueFlow(dir Directory, topK int) ValueFlow {
	rates := a.rates()
	senders, receivers, currencies := make(map[flowKey]int64), make(map[flowKey]int64), make(map[flowKey]int64)
	for i := range a.payments {
		p := &a.payments[i]
		if asset := p.asset(); rates.of(asset) > 0 {
			senders[flowKey{clusterName(dir, p.From), asset}] += p.Value
			receivers[flowKey{clusterName(dir, p.To), asset}] += p.Value
			currencies[flowKey{strings.ToUpper(p.Currency), asset}] += p.Value
		}
	}
	flow := ValueFlow{Currencies: toXRP(currencies, rates)}
	for _, e := range flow.Currencies {
		flow.TotalXRPVolume += e.XRPVolume
	}
	flow.Senders = topEdges(toXRP(senders, rates), topK)
	flow.Receivers = topEdges(toXRP(receivers, rates), topK)
	flow.Currencies = topEdges(flow.Currencies, topK)
	return flow
}

// flowKey is one name's amount of one asset in Figure 12's integer fold.
type flowKey struct {
	name  string
	asset XRPAssetKey
}

// toXRP converts each amount at its asset's rate and sums them per name, in
// (name, asset) order.
func toXRP(amounts map[flowKey]int64, rates rateTable) []FlowEdge {
	keys := slices.SortedFunc(maps.Keys(amounts), func(x, y flowKey) int {
		return cmp.Or(cmp.Compare(x.name, y.name),
			cmp.Compare(x.asset.Currency, y.asset.Currency), cmp.Compare(x.asset.Issuer, y.asset.Issuer))
	})
	var out []FlowEdge
	for _, k := range keys {
		v := float64(amounts[k]) / xrpDropsPerXRP * rates.of(k.asset)
		if n := len(out); n > 0 && out[n-1].Name == k.name {
			out[n-1].XRPVolume += v
		} else {
			out = append(out, FlowEdge{Name: k.name, XRPVolume: v})
		}
	}
	return out
}

func topEdges(edges []FlowEdge, k int) []FlowEdge {
	slices.SortFunc(edges, func(x, y FlowEdge) int {
		return cmp.Or(cmp.Compare(y.XRPVolume, x.XRPVolume), cmp.Compare(x.Name, y.Name))
	})
	return edges[:min(k, len(edges))]
}
