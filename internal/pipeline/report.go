package pipeline

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
)

// Paper is what core's shard-derived sections render from: the run's three
// stage states at their scales, with the explorer directory over the XRP
// scenario's ledger. The sections below need the simulator or the run's own
// metadata, so they render here.
func (r *Result) Paper() core.Paper {
	p := core.Paper{EOS: r.EOS, Tezos: r.Tezos, XRP: r.XRP,
		Scale: map[string]int64{"eos": r.Opts.EOSScale, "tezos": r.Opts.TezosScale, "xrp": r.Opts.XRPScale}}
	if r.Dir != nil {
		p.Dir = r.Dir
	}
	return p
}

func table(fn func(w *tabwriter.Writer)) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fn(w)
	w.Flush()
	return sb.String()
}

// Figure2 renders the dataset characterization, scaled and extrapolated.
// Its gzip column is the crawl's footprint, run metadata no shard carries.
func Figure2(r *Result) string {
	out := "Figure 2 — Characterizing the datasets (scaled run; ×scale ≈ main net)\n"
	out += table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "chain\tscale\tblocks\ttxs\tgzip bytes\tblocks ×scale\ttxs ×scale\tpaper blocks\tpaper txs")
		fmt.Fprintf(w, "EOS\t%d\t%d\t%d\t%d\t%.3g\t%.3g\t16,299,999\t376,819,512\n",
			r.Opts.EOSScale, r.EOSCrawl.Blocks, r.EOS.Transactions, r.EOSCrawl.GzipBytes,
			float64(r.EOSCrawl.Blocks)*float64(r.Opts.EOSScale),
			float64(r.EOS.Transactions)*float64(r.Opts.EOSScale))
		fmt.Fprintf(w, "Tezos\t%d\t%d\t%d\t%d\t%.3g\t%.3g\t131,801\t3,345,019\n",
			r.Opts.TezosScale, r.TezosCrawl.Blocks, r.Tezos.Operations, r.TezosCrawl.GzipBytes,
			float64(r.TezosCrawl.Blocks)*float64(r.Opts.TezosScale),
			float64(r.Tezos.Operations)*float64(r.Opts.TezosScale))
		fmt.Fprintf(w, "XRP\t%d\t%d\t%d\t%d\t%.3g\t%.3g\t2,031,069\t151,324,595\n",
			r.Opts.XRPScale, r.XRPCrawl.Blocks, r.XRP.Transactions, r.XRPCrawl.GzipBytes,
			float64(r.XRPCrawl.Blocks)*float64(r.Opts.XRPScale),
			float64(r.XRP.Transactions)*float64(r.Opts.XRPScale))
	})
	return out
}

// Figure9 renders the Babylon governance vote series, which only the
// simulator's governance chain carries.
func Figure9(r *Result) string {
	if r.Gov == nil {
		return "Figure 9 — (governance replay skipped)\n"
	}
	var sb strings.Builder
	sb.WriteString("Figure 9 — Tezos Babylon amendment votes (rolls, cumulative by day)\n")
	day := 24 * time.Hour
	for _, panel := range []struct{ title, kind string }{
		{"(a) proposal period upvotes:\n", "proposals"},
		{"(b/c) exploration + promotion ballots:\n", "ballot"},
	} {
		sb.WriteString(panel.title)
		votes := r.Gov.VoteSeries(panel.kind, day)
		for _, label := range votes.Labels() {
			fmt.Fprintf(&sb, "  %-10s |%s| total %d rolls\n", label, votes.Sparkline(label), votes.Total(label))
		}
	}
	return sb.String()
}

// Figure11b renders the rate over time of the BTC IOU the XRP scenario's
// Myrone issuer manipulated.
func Figure11b(r *Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 11b — Same-issuer BTC IOU rate over time (Myrone):\n")
	if r.XRPScenario != nil {
		key := core.XRPAssetKey{Currency: "BTC", Issuer: string(r.XRPScenario.MyroneIssuer)}
		for _, pt := range r.XRP.RateSeries(key) {
			fmt.Fprintf(&sb, "  %s  %10.1f XRP\n", pt.Time.Format("2006-01-02"), float64(pt.RateMillis)/1000)
		}
	}
	sb.WriteString("  (paper: 30,500 XRP on 2019-12-14 collapsing to 0.1 within a month)\n")
	return sb.String()
}

// CaseNotes renders the one §4.1 line core's section cannot: the
// congestion the simulated chain's resource model recorded.
func CaseNotes(r *Result) string {
	if r.EOSScenario == nil {
		return ""
	}
	c := r.EOSScenario.Chain
	return fmt.Sprintf("  network congested: %v (utilization %.2f), CPU-rejected txs: %d, rent index %.0f× (paper: 10,000%% spike)\n",
		c.Resources().Congested(), c.Resources().Utilization(), c.RejectedCPU, c.Resources().RentPriceIndex())
}

// EndpointReport renders the §3.1 endpoint short-listing.
func EndpointReport(r *Result) string {
	var sb strings.Builder
	sb.WriteString("§3.1 — EOS endpoint probing and shortlist\n")
	for _, s := range r.EndpointScores {
		mark := " "
		for _, sl := range r.Shortlisted {
			if sl.URL == s.URL {
				mark = "*"
			}
		}
		sb.WriteString(fmt.Sprintf("  %s %-28s reachable=%v latency=%v success=%.0f%%\n",
			mark, s.URL, s.Reachable, s.Latency.Round(time.Microsecond), 100*s.SuccessRate))
	}
	sb.WriteString(fmt.Sprintf("  shortlisted %d of %d (paper: 6 of 32)\n", len(r.Shortlisted), len(r.EndpointScores)))
	return sb.String()
}

// StageTimings renders the orchestrator's per-stage wall-clock, crawl
// volume and pipeline-side throughput.
func StageTimings(r *Result) string {
	var sb strings.Builder
	sb.WriteString("Stage timings — orchestrator wall-clock per stage\n")
	sb.WriteString(table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "stage\twall-clock\tblocks\ttransactions\tpipeline TPS")
		for _, m := range r.StageMetrics {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.0f\n",
				m.Name, m.Elapsed.Round(time.Millisecond), m.Blocks, m.Transactions, m.TPS)
		}
	}))
	return sb.String()
}

// FullReport renders every table and figure: core's shard-derived sections
// interleaved with the ones above, in the paper's order.
func FullReport(r *Result) string {
	p := r.Paper()
	return strings.Join([]string{
		StageTimings(r), EndpointReport(r), p.Figure1(), Figure2(r), p.Figure3(), p.Figure4(), p.Figure5(),
		p.Figure6(), p.Figure7(), p.Figure8(), Figure9(r), p.Figure11a() + Figure11b(r), p.Figure12(),
		p.HeadlineTPS(), p.CaseStudies() + CaseNotes(r), p.SpamClusters(),
	}, "\n")
}
