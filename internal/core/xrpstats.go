package core

import (
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
// both in 6-decimal fixed point; MakerSequence identifies the maker's
// offer so later fills attribute to the OfferCreate that placed it.
type XRPExchange struct {
	Time                    time.Time
	LedgerIndex             int64
	Base, Counter           XRPAssetKey
	BaseValue, CounterValue int64
	Maker, Taker            string
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

	TxByType   map[string]int64 // Figure 1 rows (successful + failed)
	TxByResult map[string]int64
	Series     *stats.TimeSeries // Figure 3c

	// Per-account activity for Figure 8.
	byAccount map[string]*xrpAccountAgg

	// Payment records for value analysis. Slice order follows ingestion
	// interleaving; every consumer reduces it order-independently.
	payments []xrpPayment

	// Offer bookkeeping for the 0.2 % fulfillment statistic.
	offersCreated  int64
	offersExecuted map[offerRef]bool // executed at placement
	restingOffers  map[offerRef]bool

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
	ByType map[string]int64
	// DestTags counts destination tags used in outgoing payments (the
	// paper's Huobi fingerprint: tag 104398 on every payment).
	DestTags map[uint32]int64
}

type xrpPayment struct {
	Time     time.Time
	From, To string
	DestTag  uint32
	Currency string
	Issuer   string
	Value    int64
	Success  bool
	Native   bool
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
	s.TxByResult = make(map[string]int64)
	s.Series = stats.NewTimeSeries(origin, bucket)
	s.byAccount = make(map[string]*xrpAccountAgg)
	s.offersExecuted = make(map[offerRef]bool)
	s.restingOffers = make(map[offerRef]bool)
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

// merge folds src (covering disjoint ledgers) into s and resets src.
func (s *XRPShard) merge(src *XRPShard) {
	s.Ledgers += src.Ledgers
	s.Transactions += src.Transactions
	s.Failed += src.Failed
	mergeCounts(s.TxByType, src.TxByType)
	mergeCounts(s.TxByResult, src.TxByResult)
	s.Series.Merge(src.Series)
	for addr, agg := range src.byAccount {
		d := s.byAccount[addr]
		if d == nil {
			s.byAccount[addr] = agg
			continue
		}
		d.Total += agg.Total
		mergeCounts(d.ByType, agg.ByType)
		mergeCounts(d.DestTags, agg.DestTags)
	}
	s.payments = append(s.payments, src.payments...)
	s.offersCreated += src.offersCreated
	for ref := range src.offersExecuted {
		s.offersExecuted[ref] = true
	}
	for ref := range src.restingOffers {
		s.restingOffers[ref] = true
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
	ledgers, times, err := parseBatch(batch, "xrp", xrpCloseTime)
	if err != nil {
		return err
	}
	for i, l := range ledgers {
		s.ingest(l, times[i])
	}
	return nil
}

// ingest folds one ledger into the shard; the caller owns the shard.
func (a *XRPShard) ingest(l *wire.XRPLedger, ts time.Time) {
	a.Ledgers++
	if a.FirstLedgerTime.IsZero() || ts.Before(a.FirstLedgerTime) {
		a.FirstLedgerTime = ts
	}
	if ts.After(a.LastLedgerTime) {
		a.LastLedgerTime = ts
	}
	for i := range l.Transactions {
		tx := &l.Transactions[i]
		a.Transactions++
		a.TxByType[tx.TransactionType]++
		a.TxByResult[tx.Result]++
		success := tx.Result == "tesSUCCESS"
		if !success {
			a.Failed++
			a.Series.Add(ts, "Unsuccessful Tx", 1)
		} else {
			a.Series.Add(ts, xrpSeriesLabel(tx.TransactionType), 1)
		}

		acct := a.byAccount[tx.Account]
		if acct == nil {
			acct = &xrpAccountAgg{ByType: make(map[string]int64), DestTags: make(map[uint32]int64)}
			a.byAccount[tx.Account] = acct
		}
		acct.Total++
		acct.ByType[tx.TransactionType]++

		switch tx.TransactionType {
		case "Payment":
			amt := tx.Amount
			if tx.DeliveredAmount.Set {
				amt = tx.DeliveredAmount
			}
			a.payments = append(a.payments, xrpPayment{
				Time: ts, From: tx.Account, To: tx.Destination,
				DestTag:  tx.DestinationTag,
				Currency: amt.Currency, Issuer: amt.Issuer,
				Value: amt.Value, Success: success,
				Native: amt.Currency == "XRP" && amt.Issuer == "",
			})
			if tx.DestinationTag != 0 {
				acct.DestTags[tx.DestinationTag]++
			}
		case "OfferCreate":
			if success {
				a.offersCreated++
				ref := offerRef{tx.Account, tx.Sequence}
				if tx.Executed {
					a.offersExecuted[ref] = true
				}
				if tx.RestingSequence != 0 {
					a.restingOffers[offerRef{tx.Account, tx.RestingSequence}] = true
				}
			}
		}
	}
}

func xrpSeriesLabel(txType string) string {
	switch txType {
	case "Payment", "OfferCreate":
		return txType
	default:
		return "Others"
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

// RateToXRP returns the average traded XRP per unit of the asset over all
// observed exchanges (0 when it never traded against XRP).
func (a *XRPShard) RateToXRP(key XRPAssetKey) float64 {
	if key.Issuer == "" && key.Currency == "XRP" {
		return 1
	}
	xrpKey := XRPAssetKey{Currency: "XRP"}
	var sum float64
	var n int
	for _, e := range a.exchanges {
		switch {
		case e.Base == key && e.Counter == xrpKey && e.BaseValue > 0:
			sum += float64(e.CounterValue) / float64(e.BaseValue)
			n++
		case e.Base == xrpKey && e.Counter == key && e.CounterValue > 0:
			sum += float64(e.BaseValue) / float64(e.CounterValue)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
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

	var payOK, payValue int64
	for _, p := range a.payments {
		if !p.Success {
			continue
		}
		payOK++
		if p.Native || a.RateToXRP(XRPAssetKey{Currency: p.Currency, Issuer: p.Issuer}) > 0 {
			payValue++
		}
	}
	d.PaymentsWithValue = float64(payValue) / total
	d.PaymentsNoValue = float64(payOK-payValue) / total
	if payOK > 0 {
		d.ValuablePaymentRate = float64(payValue) / float64(payOK)
	}

	executed := int64(0)
	for ref := range a.offersExecuted {
		_ = ref
		executed++
	}
	if executed > a.offersCreated {
		executed = a.offersCreated
	}
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
	Account     string
	Total       int64
	OfferCreate int64
	Payment     int64
	Others      int64
	// OfferShare is OfferCreate/Total; the paper's top accounts all exceed
	// 98 %.
	OfferShare float64
	// DominantDestTag is the most used destination tag (104398 for the
	// Huobi cluster), 0 when none.
	DominantDestTag uint32
}

// TopAccounts returns the k most active accounts (Figure 8).
func (a *XRPShard) TopAccounts(k int) []XRPAccountProfile {
	out := make([]XRPAccountProfile, 0, len(a.byAccount))
	for addr, agg := range a.byAccount {
		p := XRPAccountProfile{
			Account:     addr,
			Total:       agg.Total,
			OfferCreate: agg.ByType["OfferCreate"],
			Payment:     agg.ByType["Payment"],
		}
		p.Others = p.Total - p.OfferCreate - p.Payment
		if p.Total > 0 {
			p.OfferShare = float64(p.OfferCreate) / float64(p.Total)
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

// TrafficShares returns per-account transaction counts, for concentration
// statistics ("the 18 most active accounts are responsible for half of the
// total traffic").
func (a *XRPShard) TrafficShares() []float64 {
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
	type accum struct {
		sum float64
		n   int
	}
	byIssuer := make(map[string]*accum)
	xrpKey := XRPAssetKey{Currency: "XRP"}
	for _, e := range a.exchanges {
		var issuer string
		var rate float64
		switch {
		case e.Base.Currency == currency && e.Counter == xrpKey && e.BaseValue > 0:
			issuer = e.Base.Issuer
			rate = float64(e.CounterValue) / float64(e.BaseValue)
		case e.Counter.Currency == currency && e.Base == xrpKey && e.CounterValue > 0:
			issuer = e.Counter.Issuer
			rate = float64(e.BaseValue) / float64(e.CounterValue)
		default:
			continue
		}
		acc := byIssuer[issuer]
		if acc == nil {
			acc = &accum{}
			byIssuer[issuer] = acc
		}
		acc.sum += rate
		acc.n++
	}
	out := make([]IssuerRate, 0, len(byIssuer))
	for issuer, acc := range byIssuer {
		out = append(out, IssuerRate{Issuer: issuer, Rate: acc.sum / float64(acc.n), Trades: acc.n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rate != out[j].Rate {
			return out[i].Rate > out[j].Rate
		}
		return out[i].Issuer < out[j].Issuer
	})
	return out
}

// RateSeries returns the chronological rates of one asset against XRP
// (Figure 11b: the Myrone BTC IOU collapsing from 30,500 to 0.1).
func (a *XRPShard) RateSeries(key XRPAssetKey) []stats.Row {
	xrpKey := XRPAssetKey{Currency: "XRP"}
	var rows []stats.Row
	for _, e := range a.exchanges {
		var rate float64
		switch {
		case e.Base == key && e.Counter == xrpKey && e.BaseValue > 0:
			rate = float64(e.CounterValue) / float64(e.BaseValue)
		case e.Base == xrpKey && e.Counter == key && e.CounterValue > 0:
			rate = float64(e.BaseValue) / float64(e.CounterValue)
		default:
			continue
		}
		rows = append(rows, stats.Row{Start: e.Time, Counts: map[string]int64{"rate_millis": int64(rate * 1000)}})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Start.Before(rows[j].Start) })
	return rows
}

// ClusterFunc resolves an address to a display cluster (exchange username,
// "<name> -- descendant", or the raw address).
type ClusterFunc func(addr string) string

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

// ValueFlow computes Figure 12 using cluster for account attribution.
func (a *XRPShard) ValueFlow(cluster ClusterFunc, topK int) ValueFlow {
	if cluster == nil {
		cluster = func(addr string) string { return addr }
	}
	senders := make(map[string]float64)
	receivers := make(map[string]float64)
	currencies := make(map[string]float64)
	var total float64
	for _, p := range a.payments {
		if !p.Success {
			continue
		}
		var xrpEq float64
		if p.Native {
			xrpEq = float64(p.Value) / xrpDropsPerXRP
		} else {
			rate := a.RateToXRP(XRPAssetKey{Currency: p.Currency, Issuer: p.Issuer})
			if rate <= 0 {
				continue // valueless token: excluded from the flow diagram
			}
			xrpEq = float64(p.Value) / xrpDropsPerXRP * rate
		}
		total += xrpEq
		senders[cluster(p.From)] += xrpEq
		receivers[cluster(p.To)] += xrpEq
		currencies[strings.ToUpper(p.Currency)] += xrpEq
	}
	return ValueFlow{
		TotalXRPVolume: total,
		Senders:        topEdges(senders, topK),
		Receivers:      topEdges(receivers, topK),
		Currencies:     topEdges(currencies, topK),
	}
}

func topEdges(m map[string]float64, k int) []FlowEdge {
	out := make([]FlowEdge, 0, len(m))
	for name, v := range m {
		out = append(out, FlowEdge{Name: name, XRPVolume: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].XRPVolume != out[j].XRPVolume {
			return out[i].XRPVolume > out[j].XRPVolume
		}
		return out[i].Name < out[j].Name
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
