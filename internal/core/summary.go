package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// ChainSummary is one chain's deterministic aggregate footprint: every
// number in it derives from order-independent aggregates, so a live crawl
// and an archive replay over the same blocks render byte-identical text —
// the property TestEveryPathPrintsThePaper diffs to prove replay
// determinism. It carries what serve's /v1/summary returns and nothing a
// paper section prints besides Figure 1's type table: the §4.1 wash-trade,
// boomerang and EIDOS results, Tezos' endorsement share and XRP's failed
// count are printed once, by the sections (see Figures).
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
}

// StatsKit bundles one chain's aggregate behind the chain-agnostic
// surfaces the CLIs need: a Decoder for the ingest pool, the running
// transaction count for progress lines, and the deterministic figures
// summary. cmd/crawl builds one for its live crawl and cmd/report builds
// one per archive it replays — both ends of the archive determinism check
// therefore run the same code. The kit holds core's one lock: its
// Decoder's worker shards merge under it, and Txs and Summarize read under
// it, so both are safe to call while ingestion runs.
type StatsKit struct {
	Chain     string
	Decoder   Decoder
	Txs       func() int64
	Summarize func() ChainSummary
	// State exposes the kit's accumulated shard state behind the
	// ShardState contract — what a coord worker checkpoints and emits as
	// its shard, and what a caller reads the figure queries from once
	// ingestion has drained. It is the live aggregate, not a copy: touch it
	// only while nothing is ingesting into it.
	State func() ShardState
}

// NewStatsKit builds the aggregate stack for a chain name as it appears in
// an archive manifest or a -chain flag.
func NewStatsKit(chain string, origin time.Time, bucket time.Duration) (StatsKit, error) {
	st, err := NewShardState(chain, origin, bucket)
	if err != nil {
		return StatsKit{}, err
	}
	k := &kitState{state: st}
	var txs *int64
	kit := StatsKit{Chain: chain, Summarize: k.summarize, State: func() ShardState { return st }}
	switch s := st.(type) {
	case *EOSShard:
		k.blank = func() ShardState { n := s.blank(); return &n }
		kit.Decoder = &chainDecoder[wire.EOSBlock]{k, "EOS block",
			wire.GetEOSBlock, wire.PutEOSBlock, (*wire.Codec).DecodeEOSBlock}
		txs = &s.Transactions
	case *TezosShard:
		k.blank = func() ShardState { n := s.blank(); return &n }
		kit.Decoder = &chainDecoder[wire.TezosBlock]{k, "Tezos block",
			wire.GetTezosBlock, wire.PutTezosBlock, (*wire.Codec).DecodeTezosBlock}
		txs = &s.Operations
	case *XRPShard:
		k.blank = func() ShardState { n := s.blank(); return &n }
		kit.Decoder = &chainDecoder[wire.XRPLedger]{k, "XRP ledger",
			wire.GetXRPLedger, wire.PutXRPLedger, (*wire.Codec).DecodeXRPLedgerResult}
		txs = &s.Transactions
	}
	kit.Txs = k.counter(txs)
	return kit, nil
}

// cloneCounts deep-copies a count map so a summary never aliases live
// shard state.
func cloneCounts(src map[string]int64) map[string]int64 {
	dst := make(map[string]int64, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// Summary captures the shard's deterministic footprint. The caller must own
// the shard exclusively (for a StatsKit's state while ingestion may run,
// call the kit's Summarize, which holds its lock). Nothing in the returned
// summary aliases shard state.
func (s *EOSShard) Summary() ChainSummary {
	return ChainSummary{
		Chain:        "eos",
		Blocks:       s.Blocks,
		Transactions: s.Transactions,
		First:        s.FirstBlockTime,
		Last:         s.LastBlockTime,
		TypeCounts:   cloneCounts(s.ActionsByName),
		BucketTotals: stats.TotalValues(s.Series),
	}
}

// Summary captures the shard's deterministic footprint; the caller must own
// the shard exclusively (see EOSShard.Summary).
func (s *TezosShard) Summary() ChainSummary {
	return ChainSummary{
		Chain:        "tezos",
		Blocks:       s.Blocks,
		Transactions: s.Operations,
		First:        s.FirstBlockTime,
		Last:         s.LastBlockTime,
		TypeCounts:   cloneCounts(s.OpsByKind),
		BucketTotals: stats.TotalValues(s.Series),
	}
}

// Summary captures the shard's deterministic footprint; the caller must own
// the shard exclusively (see EOSShard.Summary).
func (s *XRPShard) Summary() ChainSummary {
	return ChainSummary{
		Chain:        "xrp",
		Blocks:       s.Ledgers,
		Transactions: s.Transactions,
		First:        s.FirstLedgerTime,
		Last:         s.LastLedgerTime,
		TypeCounts:   cloneCounts(s.TxByType),
		BucketTotals: stats.TotalValues(s.Series),
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
	return sb.String()
}
