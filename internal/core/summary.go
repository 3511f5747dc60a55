package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// ChainSummary is one chain's deterministic aggregate footprint: every
// number in it derives from order-independent aggregates, so a live crawl
// and an archive replay over the same blocks render byte-identical text —
// the property the CI archive job diffs to prove replay determinism.
type ChainSummary struct {
	Chain        string
	Blocks       int64
	Transactions int64
	First, Last  time.Time
	// TypeCounts is the Figure 1-style transaction/operation/action type
	// distribution.
	TypeCounts map[string]int64
	// BucketTotals are the per-bucket throughput totals behind the
	// percentile lines.
	BucketTotals []int64
	// Wash carries the §4.1 wash-trade analysis (EOS only).
	Wash *WashTradeReport
	// Notes are extra chain-specific deterministic lines.
	Notes []string
}

// StatsKit bundles one chain's aggregator behind the chain-agnostic
// surfaces the CLIs need: a Decoder for the ingest pool, the running
// transaction count for progress lines, and the deterministic figures
// summary. cmd/crawl builds one for its live crawl and cmd/report builds
// one per archive it replays — both ends of the archive determinism check
// therefore run the same code.
type StatsKit struct {
	Chain     string
	Decoder   Decoder
	Txs       func() int64
	Summarize func() ChainSummary
	// State exposes the aggregator's accumulated shard state behind the
	// ShardState contract — what a coord worker checkpoints and emits as
	// its shard. It is the live aggregate, not a copy: encode it only
	// while nothing is ingesting into it.
	State func() ShardState
}

// NewStatsKit builds the aggregator stack for a chain name as it appears
// in an archive manifest or a -chain flag.
func NewStatsKit(chain string, origin time.Time, bucket time.Duration) (StatsKit, error) {
	switch chain {
	case "eos":
		agg := NewEOSAggregator(origin, bucket)
		return StatsKit{
			Chain:     chain,
			Decoder:   agg.Decoder(),
			Txs:       func() int64 { return agg.Transactions },
			Summarize: func() ChainSummary { return SummarizeEOS(agg) },
			State:     func() ShardState { return &agg.EOSShard },
		}, nil
	case "tezos":
		agg := NewTezosAggregator(origin, bucket)
		return StatsKit{
			Chain:     chain,
			Decoder:   agg.Decoder(),
			Txs:       func() int64 { return agg.Operations },
			Summarize: func() ChainSummary { return SummarizeTezos(agg) },
			State:     func() ShardState { return &agg.TezosShard },
		}, nil
	case "xrp":
		agg := NewXRPAggregator(origin, bucket)
		return StatsKit{
			Chain:     chain,
			Decoder:   agg.Decoder(),
			Txs:       func() int64 { return agg.Transactions },
			Summarize: func() ChainSummary { return SummarizeXRP(agg) },
			State:     func() ShardState { return &agg.XRPShard },
		}, nil
	}
	return StatsKit{}, fmt.Errorf("core: unknown chain %q", chain)
}

// cloneCounts deep-copies a count map so a summary never aliases live
// aggregator state.
func cloneCounts(src map[string]int64) map[string]int64 {
	dst := make(map[string]int64, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// SummarizeEOS captures an EOS aggregator's deterministic footprint. It
// holds the aggregator lock while it reads and deep-copies everything the
// summary keeps, so it is safe to call while ingest batches keep landing,
// and the returned summary is immutable afterwards — the copy-on-write
// primitive behind the serving layer's snapshots (internal/serve).
func SummarizeEOS(a *EOSAggregator) ChainSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.EOSShard.Summary()
}

// Summary captures the shard's deterministic footprint. The caller must own
// the shard exclusively (for an aggregator's embedded shard, that means
// holding its mutex — use SummarizeEOS). Nothing in the returned summary
// aliases shard state.
func (s *EOSShard) Summary() ChainSummary {
	wash := AnalyzeWashTrades(s.Trades, 5)
	sum := ChainSummary{
		Chain:        "eos",
		Blocks:       s.Blocks,
		Transactions: s.Transactions,
		First:        s.FirstBlockTime,
		Last:         s.LastBlockTime,
		TypeCounts:   cloneCounts(s.ActionsByName),
		BucketTotals: stats.TotalValues(s.Series),
		Wash:         &wash,
	}
	var eidosShare float64
	if s.Actions > 0 {
		eidosShare = float64(s.eidosActions) / float64(s.Actions)
	}
	sum.Notes = append(sum.Notes,
		fmt.Sprintf("boomerang txs:   %d", s.boomerangs),
		fmt.Sprintf("eidos share:     %.2f%% of actions", 100*eidosShare))
	return sum
}

// SummarizeTezos captures a Tezos aggregator's deterministic footprint.
// Like SummarizeEOS it locks and deep-copies, so it is safe under
// concurrent ingestion and the result is immutable.
func SummarizeTezos(a *TezosAggregator) ChainSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.TezosShard.Summary()
}

// Summary captures the shard's deterministic footprint; the caller must own
// the shard exclusively (see EOSShard.Summary).
func (s *TezosShard) Summary() ChainSummary {
	var endorsementShare float64
	if s.Operations > 0 {
		endorsementShare = float64(s.OpsByKind["endorsement"]) / float64(s.Operations)
	}
	return ChainSummary{
		Chain:        "tezos",
		Blocks:       s.Blocks,
		Transactions: s.Operations,
		First:        s.FirstBlockTime,
		Last:         s.LastBlockTime,
		TypeCounts:   cloneCounts(s.OpsByKind),
		BucketTotals: stats.TotalValues(s.Series),
		Notes: []string{
			fmt.Sprintf("endorsements:    %.2f%% of ops", 100*endorsementShare),
		},
	}
}

// SummarizeXRP captures an XRP aggregator's deterministic footprint. Like
// SummarizeEOS it locks and deep-copies, so it is safe under concurrent
// ingestion and the result is immutable.
func SummarizeXRP(a *XRPAggregator) ChainSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.XRPShard.Summary()
}

// Summary captures the shard's deterministic footprint; the caller must own
// the shard exclusively (see EOSShard.Summary).
func (s *XRPShard) Summary() ChainSummary {
	var failedShare float64
	if s.Transactions > 0 {
		failedShare = float64(s.Failed) / float64(s.Transactions)
	}
	return ChainSummary{
		Chain:        "xrp",
		Blocks:       s.Ledgers,
		Transactions: s.Transactions,
		First:        s.FirstLedgerTime,
		Last:         s.LastLedgerTime,
		TypeCounts:   cloneCounts(s.TxByType),
		BucketTotals: stats.TotalValues(s.Series),
		Notes: []string{
			fmt.Sprintf("failed txs:      %d (%.2f%%)", s.Failed, 100*failedShare),
		},
	}
}

// Render formats the summary as the stable "figures" section cmd/crawl
// prints after a live crawl and cmd/report -replay prints after an offline
// replay. Everything is sorted and derived from order-independent state,
// so the text depends only on the set of ingested blocks.
func (s ChainSummary) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s figures ---\n", s.Chain)
	fmt.Fprintf(&sb, "blocks:          %d\n", s.Blocks)
	fmt.Fprintf(&sb, "txs/ops:         %d\n", s.Transactions)
	if s.First.IsZero() || s.Blocks == 0 {
		sb.WriteString("window:          (empty)\n")
	} else {
		fmt.Fprintf(&sb, "window:          %s .. %s\n",
			s.First.UTC().Format(time.RFC3339), s.Last.UTC().Format(time.RFC3339))
		fmt.Fprintf(&sb, "observed tps:    %.3f\n", ObservedTPS(s.Transactions, s.First, s.Last))
	}
	if len(s.BucketTotals) > 0 {
		vals := make([]float64, len(s.BucketTotals))
		for i, v := range s.BucketTotals {
			vals[i] = float64(v)
		}
		// One sort serves the whole quantile grid.
		sel := stats.GetSelector()
		sel.Load(vals)
		fmt.Fprintf(&sb, "bucket p50/p90/p99: %.1f / %.1f / %.1f\n",
			sel.Percentile(50), sel.Percentile(90), sel.Percentile(99))
		stats.PutSelector(sel)
	}
	if len(s.TypeCounts) > 0 {
		var total int64
		names := make([]string, 0, len(s.TypeCounts))
		for name, n := range s.TypeCounts {
			names = append(names, name)
			total += n
		}
		sort.Slice(names, func(i, j int) bool {
			if s.TypeCounts[names[i]] != s.TypeCounts[names[j]] {
				return s.TypeCounts[names[i]] > s.TypeCounts[names[j]]
			}
			return names[i] < names[j]
		})
		sb.WriteString("types:\n")
		for _, name := range names {
			fmt.Fprintf(&sb, "  %-22s %10d  %5.1f%%\n",
				name, s.TypeCounts[name], 100*float64(s.TypeCounts[name])/float64(total))
		}
	}
	if s.Wash != nil {
		fmt.Fprintf(&sb, "wash trades:     %d settled, self-trade %.1f%%, top-5 involvement %.1f%%\n",
			s.Wash.TotalTrades, 100*s.Wash.SelfTradeShare, 100*s.Wash.Top5Share)
		for _, w := range s.Wash.TopAccounts {
			fmt.Fprintf(&sb, "  %-22s trades %7d  self %5.1f%%\n", w.Account, w.Trades, 100*w.SelfTradeShare)
		}
	}
	for _, note := range s.Notes {
		sb.WriteString(note)
		sb.WriteByte('\n')
	}
	return sb.String()
}
