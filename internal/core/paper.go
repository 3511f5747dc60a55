package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/stats"
)

// Paper is what the paper's shard-derived sections render from: a run's
// states (any may be nil; a section renders the chains present, or nothing),
// each chain's scale divisor (a missing entry is 1, a real crawl) and the
// explorer directory, if the run has one. Every number a section prints
// comes from integer counts or from a reduction in canonical order, so the
// text depends only on the blocks and exchange records the states hold,
// never on how they were partitioned or merged.
type Paper struct {
	EOS   *EOSShard
	Tezos *TezosShard
	XRP   *XRPShard
	Scale map[string]int64
	Dir   Directory
}

// Directory is the explorer metadata the sections read: the paper
// clustered XRP addresses by XRP Scan usernames and activation parents.
type Directory interface {
	// ClusterName is addr's username, its parent's username plus
	// " -- descendant", or addr itself.
	ClusterName(addr string) string
	// Activation returns who activated addr and when; parent is "" when
	// unknown.
	Activation(addr string) (parent string, at time.Time)
}

// paper holds the values the paper reports, printed beside each
// measurement: "1 <chain> <type>" is Figure 1's share of the chain's
// transactions, "7 <row>" Figure 7's share of XRP throughput (printed
// right-aligned in six columns, so the one with a note is padded here).
var paper = map[string]string{
	"1 eos transfer": "91.6%", "1 eos others": "8.3%",
	"1 tezos endorsement": "81.7%", "1 tezos transaction": "16.2%",
	"1 xrp OfferCreate": "50.4%", "1 xrp Payment": "46.2%", "1 xrp TrustSet": "1.9%", "1 xrp OfferCancel": "1.5%",
	"7 failed": "10.7%", "7 successful": "89.3%", "7 payments with value": "2.1%", "7 payments no value": "36.0%",
	"7 offers exchanged": "0.1%", "7 offers no exchange": "49.4%", "7 others successful": "1.7%",
	"7 economic share": "2.3%", "7 offer fulfillment": "0.2%", "7 valuable payments": `  5.5%  ("1 in 19")`,

	"3 regime shift": ">10× at Nov 1",
	"8 top-18 share": "~50%",
	"12 volume":      "43B XRP + IOU flows",
	"tps eos":        "~47 tx/s incl. EIDOS era (headline 20)",
	"tps tezos":      "0.42 op/s total ops; headline 0.08 TPS for transactions",
	"tps xrp":        "~19 tx/s",
	"4.1 top-5":      ">70%",
	"4.1 self-trade": ">85%",
	"4.1 eidos":      "95% of txs EIDOS-driven",
	"4.3 spam hub":   "one account activated 5,020 children in a week for meaningless mutual payments",
}

// unrated stands in for every number that needs an IOU's XRP rate when the
// XRP state holds no exchange records — every fleet run, which crawls
// ledgers but not the explorer's trade records.
const unrated = "unmeasured (no exchange records to rate IOUs by)"

// Figures is what every path from stored bytes to text prints: each state's
// summary, then the paper's sections once over all of them, at scale 1 with
// no directory.
func Figures(states ...ShardState) string {
	var sb strings.Builder
	var p Paper
	for _, st := range states {
		sb.WriteString(st.Summary().Render())
		switch s := st.(type) {
		case *EOSShard:
			p.EOS = s
		case *TezosShard:
			p.Tezos = s
		case *XRPShard:
			p.XRP = s
		}
	}
	return sb.String() + p.render()
}

// render is every section with a chain to read, each after a blank line, so
// a reader can cut the summaries (which hold none) from the sections.
func (p Paper) render() string {
	var sb strings.Builder
	for _, section := range []string{
		p.Figure1(), p.Figure3(), p.Figure4(), p.Figure5(), p.Figure6(), p.Figure7(),
		p.Figure8(), p.Figure11a(), p.Figure12(), p.HeadlineTPS(), p.CaseStudies(), p.SpamClusters(),
	} {
		if section != "" {
			sb.WriteString("\n" + section)
		}
	}
	return sb.String()
}

func (p Paper) none() bool { return p.EOS == nil && p.Tezos == nil && p.XRP == nil }

func (p Paper) scale(chain string) int64 { return max(p.Scale[chain], 1) }

// clusterName is addr's cluster in dir, or addr itself without one.
func clusterName(dir Directory, addr string) string {
	if dir == nil {
		return addr
	}
	return dir.ClusterName(addr)
}

// pct is n as a percentage of total, 0 when total is 0.
func pct(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

func table(fn func(w *tabwriter.Writer)) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fn(w)
	w.Flush()
	return sb.String()
}

// byCount returns m's keys by count, largest first, ties by name.
func byCount(m map[string]int64) []string {
	names := slices.Collect(maps.Keys(m))
	slices.SortFunc(names, func(a, b string) int { return cmp.Or(cmp.Compare(m[b], m[a]), cmp.Compare(a, b)) })
	return names
}

func shorten(addr string) string {
	if len(addr) > 18 {
		return addr[:18] + "…"
	}
	return addr
}

// Figure1 renders the transaction-type distribution of every chain present.
func (p Paper) Figure1() string {
	if p.none() {
		return ""
	}
	return "Figure 1 — Distribution of transaction types per blockchain\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "chain\ttype\tcount\tshare\tpaper")
		emit := func(chain string, counts map[string]int64, total int64) {
			for _, name := range byCount(counts) {
				fmt.Fprintf(w, "%s\t%s\t%d\t%.1f%%\t%s\n",
					chain, name, counts[name], pct(counts[name], total), paper["1 "+chain+" "+name])
			}
		}
		if p.EOS != nil {
			emit("eos", p.EOS.ActionsByName, p.EOS.Actions)
		}
		if p.Tezos != nil {
			emit("tezos", p.Tezos.OpsByKind, p.Tezos.Operations)
		}
		if p.XRP != nil {
			emit("xrp", p.XRP.TxByType, p.XRP.Transactions)
		}
	})
}

// Figure3 renders the throughput-over-time panel of every chain present.
func (p Paper) Figure3() string {
	if p.none() {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("Figure 3 — Throughput across time (one char per bucket, height ∝ count)\n")
	panel := func(title string, ts *stats.TimeSeries, width int) {
		sb.WriteString(title)
		for _, label := range ts.Labels() {
			fmt.Fprintf(&sb, "  %-*s |%s| total %d\n", width, label, ts.Sparkline(label), ts.Total(label))
		}
	}
	if p.EOS != nil {
		panel("(a) EOS by app category:\n", p.EOS.Series, 12)
		if shift, ok := stats.DetectRegimeShift(stats.TotalValues(p.EOS.Series), 8); ok {
			fmt.Fprintf(&sb, "  regime shift at bucket %d (%s): %.0f -> %.0f actions/bucket, ×%.1f (paper: %s)\n",
				shift.Bucket, p.EOS.Series.BucketStart(shift.Bucket).Format("2006-01-02"),
				shift.Before, shift.After, shift.Ratio, paper["3 regime shift"])
		}
	}
	if p.Tezos != nil {
		panel("(b) Tezos by operation group:\n", p.Tezos.Series, 12)
	}
	if p.XRP != nil {
		panel("(c) XRP by transaction outcome:\n", p.XRP.Series, 15)
	}
	return sb.String()
}

// Figure4 renders the EOS top applications.
func (p Paper) Figure4() string {
	if p.EOS == nil {
		return ""
	}
	return "Figure 4 — EOS top applications by received actions\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "contract\tcategory\treceived\ttop actions")
		for _, c := range p.EOS.TopReceivers(8) {
			var actions []string
			for _, a := range c.Actions[:min(3, len(c.Actions))] {
				actions = append(actions, fmt.Sprintf("%s %.1f%%", a.Name, pct(a.Count, c.Total)))
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%s\n", c.Contract, c.Label, c.Total, strings.Join(actions, ", "))
		}
	})
}

// Figure5 renders the EOS top sender→receiver pairs.
func (p Paper) Figure5() string {
	if p.EOS == nil {
		return ""
	}
	return "Figure 5 — EOS account pairs with the highest number of sent actions\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "sender\tsent\tunique receivers\ttop receivers")
		for _, s := range p.EOS.TopSenderPairs(6, 3) {
			var recvs []string
			for _, r := range s.Receivers {
				recvs = append(recvs, fmt.Sprintf("%s %.1f%%", r.Receiver, pct(r.Count, s.Sent)))
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%s\n", s.Sender, s.Sent, s.UniqueReceivers, strings.Join(recvs, ", "))
		}
	})
}

// Figure6 renders the Tezos top senders with fan-out statistics.
func (p Paper) Figure6() string {
	if p.Tezos == nil {
		return ""
	}
	return "Figure 6 — Tezos accounts with the highest number of sent transactions\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "sender\tsent\tunique receivers\tavg/receiver\tstdev")
		for _, s := range p.Tezos.TopSenders(6) {
			fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\t%.2f\n",
				shorten(s.Sender), s.Sent, s.UniqueReceivers, s.AvgPerReceiver, s.StdevPerReceiver)
		}
	})
}

// Figure7 renders the XRP value decomposition. Whether a payment carries
// value reads its token's rate, so without exchange records the rows that
// split by value collapse into one line saying so.
func (p Paper) Figure7() string {
	if p.XRP == nil {
		return ""
	}
	d := p.XRP.Decompose()
	rated := len(p.XRP.exchanges) > 0
	var sb strings.Builder
	sb.WriteString("Figure 7 — XRP throughput decomposition (measured | paper)\n")
	row := func(name string, measured float64) {
		fmt.Fprintf(&sb, "  %-22s %6.2f%% | %6s\n", name, 100*measured, paper["7 "+name])
	}
	byValue := func(name string, measured float64) {
		if rated {
			row(name, measured)
		} else if name == "payments with value" {
			fmt.Fprintf(&sb, "  %-22s %s\n", "payment value", unrated)
		}
	}
	row("failed", d.FailedShare)
	row("successful", d.SuccessfulShare)
	byValue("payments with value", d.PaymentsWithValue)
	byValue("payments no value", d.PaymentsNoValue)
	row("offers exchanged", d.OffersExchanged)
	row("offers no exchange", d.OffersNoExchange)
	row("others successful", d.OthersSuccessful)
	byValue("economic share", d.EconomicShare)
	row("offer fulfillment", d.OfferFulfillmentRate)
	byValue("valuable payments", d.ValuablePaymentRate)
	return sb.String()
}

// Figure8 renders the most active XRP accounts.
func (p Paper) Figure8() string {
	if p.XRP == nil {
		return ""
	}
	out := "Figure 8 — Most active accounts on the XRP ledger\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "account\tcluster\ttotal\toffer share\tdest tag")
		for _, a := range p.XRP.TopAccounts(10) {
			tag := ""
			if a.DominantDestTag != 0 {
				tag = fmt.Sprintf("%d", a.DominantDestTag)
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%.1f%%\t%s\n",
				shorten(a.Account), clusterName(p.Dir, a.Account), a.Total, 100*a.OfferShare, tag)
		}
	})
	conc := concentration(p.XRP.trafficShares(), 18)
	return out + fmt.Sprintf("  top-18 accounts carry %.0f%% of traffic (paper: %s), Gini %.2f, %d accounts\n",
		100*conc.TopKShare, paper["8 top-18 share"], conc.Gini, conc.Accounts)
}

// Figure11a renders the per-issuer BTC IOU rates.
func (p Paper) Figure11a() string {
	if p.XRP == nil {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("Figure 11a — Average XRP rate of BTC IOUs by issuer (December)\n")
	if len(p.XRP.exchanges) == 0 {
		fmt.Fprintf(&sb, "  %s\n", unrated)
	}
	for _, ir := range p.XRP.IssuerRates("BTC") {
		fmt.Fprintf(&sb, "  %-28s %12.1f XRP  (%d trades)\n", clusterName(p.Dir, ir.Issuer), ir.Rate, ir.Trades)
	}
	return sb.String()
}

// Figure12 renders the value-flow aggregation. Native XRP needs no rate, so
// without exchange records only the IOU flows go unmeasured.
func (p Paper) Figure12() string {
	if p.XRP == nil {
		return ""
	}
	flow := p.XRP.ValueFlow(p.Dir, 8)
	scale := p.scale("xrp")
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 12 — XRP value flow (scaled run; ×%d ≈ main net)\n", scale)
	fmt.Fprintf(&sb, "  total volume: %.3g XRP scaled (≈ %.3g full-scale; paper: %s)\n",
		flow.TotalXRPVolume, flow.TotalXRPVolume*float64(scale), paper["12 volume"])
	if len(p.XRP.exchanges) == 0 {
		fmt.Fprintf(&sb, "  IOU flows: %s\n", unrated)
	}
	edges := func(title string, edges []FlowEdge) {
		sb.WriteString(title)
		for _, e := range edges {
			share := 0.0
			if flow.TotalXRPVolume != 0 {
				share = 100 * e.XRPVolume / flow.TotalXRPVolume
			}
			fmt.Fprintf(&sb, "    %-28s %14.0f XRP (%.1f%%)\n", e.Name, e.XRPVolume, share)
		}
	}
	edges("  top senders:\n", flow.Senders)
	edges("  top receivers:\n", flow.Receivers)
	sb.WriteString("  currencies:\n")
	for _, e := range flow.Currencies {
		fmt.Fprintf(&sb, "    %-8s %14.0f XRP-equivalent\n", e.Name, e.XRPVolume)
	}
	return sb.String()
}

// HeadlineTPS renders the §3 throughput summary of every chain present.
func (p Paper) HeadlineTPS() string {
	if p.none() {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("Headline TPS (full-scale estimate | paper)\n")
	line := func(format, chain string, txs int64, first, last time.Time) {
		fmt.Fprintf(&sb, format, EstimatedFullScaleTPS(txs, first, last, p.scale(chain)), paper["tps "+chain])
	}
	if s := p.EOS; s != nil {
		line("  EOS   %8.1f tx/s | %s\n", "eos", s.Transactions, s.FirstBlockTime, s.LastBlockTime)
	}
	if s := p.Tezos; s != nil {
		line("  Tezos %8.2f op/s | %s\n", "tezos", s.Operations, s.FirstBlockTime, s.LastBlockTime)
	}
	if s := p.XRP; s != nil {
		line("  XRP   %8.1f tx/s | %s\n", "xrp", s.Transactions, s.FirstLedgerTime, s.LastLedgerTime)
	}
	return sb.String()
}

// CaseStudies renders the §4.1 findings the EOS state holds: the WhaleEx
// wash trading, the EIDOS boomerangs, the airdrop's share of actions and
// the financial volume the boomerangs inflate.
func (p Paper) CaseStudies() string {
	s := p.EOS
	if s == nil {
		return ""
	}
	var sb strings.Builder
	rep := AnalyzeWashTrades(s.Trades, 5)
	fmt.Fprintf(&sb, "§4.1 — WhaleEx wash trading\n  settled trades: %d, self-trade share %.1f%% (top-5 involvement %.1f%%, paper %s)\n",
		rep.TotalTrades, 100*rep.SelfTradeShare, 100*rep.Top5Share, paper["4.1 top-5"])
	for _, w := range rep.TopAccounts {
		fmt.Fprintf(&sb, "    %-14s trades %6d  self %.1f%% (paper: %s)\n",
			w.Account, w.Trades, 100*w.SelfTradeShare, paper["4.1 self-trade"])
	}
	for _, bc := range balanceChanges(s.Trades, rep.TopAccounts) {
		fmt.Fprintf(&sb, "    %-14s %d/%d currencies with ~zero net balance change\n", bc.account, bc.unchanged, bc.currencies)
	}
	fmt.Fprintf(&sb, "§4.1 — EIDOS boomerang and congestion\n  boomerang transactions: %d (%.1f%% of txs)\n",
		s.boomerangs, pct(s.boomerangs, s.Transactions))
	fmt.Fprintf(&sb, "  EIDOS-touching actions: %.1f%% of all actions (paper: %s)\n", 100*s.EIDOSShare(), paper["4.1 eidos"])
	switch {
	case s.volume < 0 || s.boomerangVolume < 0:
		sb.WriteString("  EOS financial volume: refused, the sum of transfers passes int64 in 10⁻⁴ EOS\n")
	case s.volume > 0:
		fmt.Fprintf(&sb, "  EOS financial volume: %.0f EOS moved, %.1f%% of it boomerang legs with no net transfer\n",
			float64(s.volume)/1e4, pct(s.boomerangVolume, s.volume))
	}
	return sb.String()
}

// SpamClusters renders the extension: self-contained payment mills found
// from activation parentage plus payment flows, generalizing §4.3's rpJZ5Wy
// incident. Parentage comes from the explorer, as the paper's came from XRP
// Scan, so without a directory there is nothing to detect.
func (p Paper) SpamClusters() string {
	if p.XRP == nil {
		return ""
	}
	out := "Extension — spam-cluster detection (generalized §4.3)\n"
	if p.Dir == nil {
		return out + "  unmeasured (no explorer directory to read activation parents from)\n"
	}
	activations := make(map[string]activation)
	for addr := range p.XRP.byAccount {
		if parent, at := p.Dir.Activation(addr); parent != "" {
			activations[addr] = activation{parent, at}
		}
	}
	clusters := detectSpamClusters(activations, p.XRP.paymentViews(p.XRP.rates()))
	if len(clusters) == 0 {
		return out + "  no self-contained payment mills detected\n"
	}
	for _, c := range clusters {
		out += fmt.Sprintf("  hub %-28s members=%d internal=%d (%.0f%%) zero-value=%.0f%% activation span=%s\n",
			clusterName(p.Dir, c.parent), c.members, c.internal, 100*c.internalShare,
			100*c.zeroValueShare, c.activationSpan.Round(time.Hour))
	}
	return out + fmt.Sprintf("  (paper: %s)\n", paper["4.3 spam hub"])
}
