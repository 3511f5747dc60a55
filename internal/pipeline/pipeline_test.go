package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/archive"
	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/stats"
)

// sharedResult runs the full pipeline once per test binary; the integration
// assertions below all read from it.
var (
	resultOnce sync.Once
	sharedRes  *Result
	sharedErr  error
)

func testResult(t *testing.T) *Result {
	t.Helper()
	resultOnce.Do(func() {
		opts := DefaultOptions()
		// Keep integration runs quick: coarser scales than the defaults.
		opts.EOSScale = 100_000
		opts.TezosScale = 1_600
		opts.XRPScale = 40_000
		opts.GovScale = 800
		if testing.Short() {
			// The quick edit loop trades convergence for speed: the
			// paper's shares are scale-invariant, so the shape assertions
			// below still hold at coarser scales. XRP keeps its scale —
			// its stage is cheap and the offer-fulfillment assertion
			// needs the traffic.
			opts.EOSScale = 200_000
			opts.TezosScale = 3_200
			opts.GovScale = 1_600
		}
		sharedRes, sharedErr = Run(context.Background(), opts)
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedRes
}

func TestPipelineEndToEndShares(t *testing.T) {
	r := testResult(t)

	// Figure 1 shapes. Paper: EOS transfers 91.6 % of actions.
	if share := float64(r.EOS.ActionsByName["transfer"]) / float64(r.EOS.Actions); share < 0.80 || share > 0.97 {
		t.Errorf("EOS transfer share = %.3f, want ~0.92", share)
	}
	// Tezos endorsements 81.7 %.
	if share := float64(r.Tezos.OpsByKind["endorsement"]) / float64(r.Tezos.Operations); share < 0.70 || share > 0.90 {
		t.Errorf("Tezos endorsement share = %.3f, want ~0.82", share)
	}
	// XRP: OfferCreate ~50.4 %, Payment ~46.2 %.
	offer := float64(r.XRP.TxByType["OfferCreate"]) / float64(r.XRP.Transactions)
	pay := float64(r.XRP.TxByType["Payment"]) / float64(r.XRP.Transactions)
	if offer < 0.35 || offer > 0.65 {
		t.Errorf("XRP offer share = %.3f, want ~0.50", offer)
	}
	if pay < 0.30 || pay > 0.62 {
		t.Errorf("XRP payment share = %.3f, want ~0.46", pay)
	}
}

func TestPipelineXRPValueDecomposition(t *testing.T) {
	r := testResult(t)
	d := r.XRP.Decompose()
	// Paper: 10.7 % failed.
	if d.FailedShare < 0.04 || d.FailedShare > 0.20 {
		t.Errorf("failed share = %.3f, want ~0.107", d.FailedShare)
	}
	// Paper: only ~2.3 % of throughput carries economic value.
	if d.EconomicShare > 0.15 {
		t.Errorf("economic share = %.3f, want small (~0.023)", d.EconomicShare)
	}
	if d.EconomicShare <= 0 {
		t.Error("economic share should not be zero: valuable flows exist")
	}
	// Paper: valuable payments are ~1 in 19 successful payments.
	if d.ValuablePaymentRate <= 0 || d.ValuablePaymentRate > 0.30 {
		t.Errorf("valuable payment rate = %.3f, want ~0.055", d.ValuablePaymentRate)
	}
	// Paper: merely 0.2 % of offers are ever fulfilled.
	if d.OfferFulfillmentRate > 0.05 {
		t.Errorf("offer fulfillment = %.4f, want ~0.002", d.OfferFulfillmentRate)
	}
}

func TestPipelineEOSCaseStudies(t *testing.T) {
	r := testResult(t)
	if cases := (core.Paper{EOS: r.EOS}).CaseStudies(); !strings.Contains(cases, "boomerang transactions: ") || strings.Contains(cases, "boomerang transactions: 0 ") {
		t.Error("no EIDOS boomerang transactions detected from crawled data")
	}
	rep := r.EOS
	wash := len(rep.Trades)
	if wash == 0 {
		t.Fatal("no WhaleEx trades crawled")
	}
	analysis := core.AnalyzeWashTrades(rep.Trades, 5)
	if analysis.SelfTradeShare < 0.5 {
		t.Errorf("self-trade share = %.2f, want high", analysis.SelfTradeShare)
	}
	if analysis.Top5Share < 0.6 {
		t.Errorf("top-5 trade involvement = %.2f, want >0.7", analysis.Top5Share)
	}
}

func TestPipelineGovernanceReplay(t *testing.T) {
	r := testResult(t)
	if r.Gov == nil {
		t.Fatal("governance aggregator missing")
	}
	if len(r.Gov.Votes) == 0 {
		t.Fatal("no governance votes crawled")
	}
	var proposalEvents, ballotEvents int
	var nayRolls int64
	for _, v := range r.Gov.Votes {
		switch v.Kind {
		case "proposals":
			proposalEvents++
		case "ballot":
			ballotEvents++
			if v.Ballot == "nay" {
				nayRolls += v.Rolls
			}
		}
	}
	if proposalEvents == 0 || ballotEvents == 0 {
		t.Fatalf("governance events: %d proposals, %d ballots", proposalEvents, ballotEvents)
	}
	if nayRolls == 0 {
		t.Error("promotion period nay votes missing")
	}
}

func TestPipelineEndpointShortlist(t *testing.T) {
	r := testResult(t)
	if len(r.EndpointScores) != eosEndpoints {
		t.Fatalf("probed %d endpoints, want %d", len(r.EndpointScores), eosEndpoints)
	}
	if len(r.Shortlisted) == 0 || len(r.Shortlisted) > eosShortlist {
		t.Fatalf("shortlist size %d", len(r.Shortlisted))
	}
	// The shortlist must outperform the rejected endpoints.
	worstShort := r.Shortlisted[len(r.Shortlisted)-1].Throughput()
	for _, s := range r.EndpointScores {
		inShort := false
		for _, sl := range r.Shortlisted {
			if sl.URL == s.URL {
				inShort = true
			}
		}
		if !inShort && s.Reachable && s.Throughput() > worstShort {
			t.Errorf("endpoint %s outperforms shortlist but was rejected", s.URL)
		}
	}
}

func TestPipelineCrawlAccounting(t *testing.T) {
	r := testResult(t)
	for name, crawl := range map[string]struct {
		blocks, gzip int64
	}{
		"eos":   {r.EOSCrawl.Blocks, r.EOSCrawl.GzipBytes},
		"tezos": {r.TezosCrawl.Blocks, r.TezosCrawl.GzipBytes},
		"xrp":   {r.XRPCrawl.Blocks, r.XRPCrawl.GzipBytes},
	} {
		if crawl.blocks == 0 {
			t.Errorf("%s: no blocks crawled", name)
		}
		if crawl.gzip <= 0 {
			t.Errorf("%s: gzip accounting empty", name)
		}
	}
	// Dataset ordering from Figure 2: EOS is the biggest corpus, Tezos the
	// smallest — the shape must survive scaling.
	if r.EOSCrawl.RawBytes < r.TezosCrawl.RawBytes {
		t.Error("EOS dataset smaller than Tezos dataset")
	}

	// A stage that writes through to an archive is deflated there and
	// nowhere else, so its Figure 2 footprint is what the archive holds.
	t.Run("archived", func(t *testing.T) {
		dir := t.TempDir()
		opts := archiveTestOptions(dir)
		opts.SkipGovernance = true
		r, err := Run(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for stage, crawl := range map[string]collect.CrawlResult{
			"eos": r.EOSCrawl, "tezos": r.TezosCrawl, "xrp": r.XRPCrawl,
		} {
			data, err := os.ReadFile(filepath.Join(dir, stage, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			var man archive.Manifest
			if err := json.Unmarshal(data, &man); err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			var total int64
			for _, seg := range man.Segments {
				total += seg.CompBytes
			}
			if crawl.GzipBytes == 0 || crawl.GzipBytes != total {
				t.Errorf("%s: footprint %d, archive manifest totals %d", stage, crawl.GzipBytes, total)
			}
		}
	})
}

func TestPipelineRates(t *testing.T) {
	r := testResult(t)
	rates := r.XRP.IssuerRates("BTC")
	if len(rates) < 3 {
		t.Fatalf("BTC issuer rates: %d, want several issuers", len(rates))
	}
	// Figure 11a shape: orders of magnitude between the top gateway and
	// the junk issuers.
	if rates[0].Rate < 1000*rates[len(rates)-1].Rate {
		t.Errorf("rate spread too small: %.1f vs %.1f", rates[0].Rate, rates[len(rates)-1].Rate)
	}
	if rates[0].Rate < 20_000 || rates[0].Rate > 50_000 {
		t.Errorf("top BTC rate = %.0f, want ~36,050", rates[0].Rate)
	}
}

func TestPipelineValueFlow(t *testing.T) {
	r := testResult(t)
	flow := r.XRP.ValueFlow(r.Dir, 10)
	if flow.TotalXRPVolume <= 0 {
		t.Fatal("no value flow measured")
	}
	names := map[string]bool{}
	for _, e := range flow.Senders {
		names[e.Name] = true
	}
	if !names["Binance"] && !names["Ripple"] {
		t.Errorf("expected exchange clusters in top senders, got %v", flow.Senders)
	}
	// XRP must dominate the currency mix.
	if len(flow.Currencies) == 0 || flow.Currencies[0].Name != "XRP" {
		t.Errorf("currencies: %+v", flow.Currencies)
	}
}

func TestPipelineTopXRPAccountsAreHuobiBots(t *testing.T) {
	r := testResult(t)
	top := r.XRP.TopAccounts(4)
	for _, p := range top {
		cluster := r.Dir.ClusterName(p.Account)
		if !strings.Contains(cluster, "Huobi") {
			t.Errorf("top account %s cluster %q, want Huobi descendant", p.Account, cluster)
		}
		if p.OfferShare < 0.90 {
			t.Errorf("top account %s offer share %.2f, want >0.98-ish", p.Account, p.OfferShare)
		}
	}
}

func TestFullReportRenders(t *testing.T) {
	r := testResult(t)
	report := FullReport(r)
	for _, want := range []string{
		"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"Figure 6", "Figure 7", "Figure 8", "Figure 9", "Figure 11",
		"Figure 12", "Headline TPS", "WhaleEx", "EIDOS",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing section %q", want)
		}
	}
	if len(report) < 2000 {
		t.Fatalf("report suspiciously short: %d bytes", len(report))
	}
}

// maskScheduling blanks the three pieces of a FullReport that legitimately
// move from run to run — the stage timings, the endpoint probe lines
// (ports, latencies, which endpoints win the shortlist) and Figure 2's gzip
// bytes, one gzip stream over multi-worker delivery order — and leaves
// every other byte alone.
func maskScheduling(report string) string {
	var out []string
	section := ""
	for _, line := range strings.Split(report, "\n") {
		switch {
		case line == "":
			section = ""
		case section == "":
			section = line
		}
		switch {
		case strings.HasPrefix(section, "Stage timings"), strings.HasPrefix(section, "§3.1"):
			continue
		case strings.HasPrefix(section, "Figure 2") && line != section:
			// Rows are tab-aligned to the widest cell, so drop the padding
			// along with the gzip bytes cell (the header's is two words).
			fields := strings.Fields(line)
			if fields[0] == "chain" {
				fields = append(fields[:4], fields[6:]...)
			} else {
				fields = append(fields[:4], fields[5:]...)
			}
			line = strings.Join(fields, " ")
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestFullReportDeterministic is the report-text oracle: two runs of the
// same options render byte-identical reports once the scheduling-dependent
// pieces are masked.
func TestFullReportDeterministic(t *testing.T) {
	first := testResult(t)
	second, err := Run(context.Background(), first.Opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := maskScheduling(FullReport(first)), maskScheduling(FullReport(second))
	if a != b {
		t.Fatalf("masked reports differ between two runs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	for _, want := range []string{"Figure 1", fmt.Sprintf("EOS %d ", first.Opts.EOSScale), "Figure 12"} {
		if !strings.Contains(a, want) {
			t.Errorf("mask removed too much: %q missing from\n%s", want, a)
		}
	}
	for _, gone := range []string{"Stage timings", "reachable=", "gzip"} {
		if strings.Contains(a, gone) {
			t.Errorf("mask left %q in the report", gone)
		}
	}
}

func TestPipelineSpamClusterExtension(t *testing.T) {
	r := testResult(t)
	out := r.Paper().SpamClusters()
	if !strings.Contains(out, "hub ") {
		t.Fatalf("no spam cluster detected:\n%s", out)
	}
	// The detected hub must be the scenario's spam hub (unregistered
	// address, so the cluster name is the raw address).
	if !strings.Contains(out, string(r.XRPScenario.SpamHub)) {
		t.Fatalf("wrong hub detected:\n%s", out)
	}
}

func TestPipelineEIDOSRegimeShift(t *testing.T) {
	r := testResult(t)
	shift, ok := stats.DetectRegimeShift(stats.TotalValues(r.EOS.Series), 8)
	if !ok {
		t.Fatal("no regime shift in the EOS series")
	}
	// The shift must land near November 1 and be large.
	when := r.EOS.Series.BucketStart(shift.Bucket)
	launch := chain.EIDOSLaunch
	if when.Before(launch.AddDate(0, 0, -5)) || when.After(launch.AddDate(0, 0, 5)) {
		t.Fatalf("shift at %s, want ~%s", when, launch)
	}
	if shift.Ratio < 5 {
		t.Fatalf("shift ratio = %.1f, want >10-ish", shift.Ratio)
	}
}
