package core

import (
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// TezosShard is the mutable aggregate state for a partition of Tezos
// blocks: one goroutine owns it, disjoint shards merge with Merge, and all
// of its statistics are order-independent (see EOSShard).
type TezosShard struct {
	Blocks     int64
	Operations int64

	OpsByKind map[string]int64  // Figure 1 rows
	Series    *stats.TimeSeries // Figure 3b: Endorsement / Transaction / Others

	// sentTo counts transaction operations per sender per receiver
	// (Figure 6 derives fan-out statistics from it).
	sentTo map[string]map[string]int64

	// Governance events (Figure 9). Slice order follows ingestion
	// interleaving; VoteSeries reduces it into time buckets
	// order-independently.
	Votes []GovernanceVote

	FirstBlockTime, LastBlockTime time.Time

	// covered is the block range this shard aggregated, when known (see
	// EOSShard.covered).
	covered BlockRange
}

// TezosAggregator ingests crawled Tezos blocks and accumulates Figure 1's
// operation-kind distribution, Figure 3b's throughput series, Figure 6's
// top-sender fan-out statistics and Figure 9's governance vote series. It
// is a thin locked wrapper around one TezosShard (see EOSAggregator).
type TezosAggregator struct {
	mu sync.Mutex
	TezosShard
}

// GovernanceVote is one proposals/ballot operation as observed on chain.
type GovernanceVote struct {
	Time     time.Time
	Level    int64
	Kind     string // "proposals" or "ballot"
	Proposal string
	Ballot   string // yay/nay/pass for ballots
	Rolls    int64
	Source   string
}

// NewTezosAggregator builds an empty aggregator.
func NewTezosAggregator(origin time.Time, bucket time.Duration) *TezosAggregator {
	a := &TezosAggregator{}
	a.TezosShard.init(origin, bucket)
	return a
}

// init allocates a shard's mutable containers.
func (s *TezosShard) init(origin time.Time, bucket time.Duration) {
	s.OpsByKind = make(map[string]int64)
	s.Series = stats.NewTimeSeries(origin, bucket)
	s.sentTo = make(map[string]map[string]int64)
}

// NewState spawns an empty private shard with the aggregator's series
// geometry, exclusively owned by the caller until MergeState.
func (a *TezosAggregator) NewState() ShardState {
	s := &TezosShard{}
	s.init(a.Series.Origin(), a.Series.Width())
	return s
}

// MergeState folds a compatible ShardState into the aggregator under one
// lock acquisition and resets it.
func (a *TezosAggregator) MergeState(st ShardState) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.TezosShard.Merge(st)
}

// Chain names the shard's chain for the ShardState contract.
func (s *TezosShard) Chain() string { return "tezos" }

// Window returns the shard's time-series geometry.
func (s *TezosShard) Window() Window {
	return Window{Origin: s.Series.Origin(), Bucket: s.Series.Width()}
}

// Covered returns the block range this shard aggregated, when known.
func (s *TezosShard) Covered() BlockRange { return s.covered }

// SetCovered records the block range the shard aggregated.
func (s *TezosShard) SetCovered(r BlockRange) { s.covered = r }

// Merge implements ShardState: it validates chain, window and covered-range
// compatibility, then folds src into s and resets it.
func (s *TezosShard) Merge(src ShardState) error {
	typed, cov, err := mergeAsShard[*TezosShard](s, src)
	if err != nil {
		return err
	}
	s.merge(typed)
	s.covered = cov
	return nil
}

// merge folds src (covering disjoint blocks) into s and resets src.
func (s *TezosShard) merge(src *TezosShard) {
	s.Blocks += src.Blocks
	s.Operations += src.Operations
	mergeCounts(s.OpsByKind, src.OpsByKind)
	s.Series.Merge(src.Series)
	mergeNested(s.sentTo, src.sentTo)
	s.Votes = append(s.Votes, src.Votes...)
	mergeWindow(&s.FirstBlockTime, &s.LastBlockTime, src.FirstBlockTime, src.LastBlockTime)
	origin, width := src.Series.Origin(), src.Series.Width()
	*src = TezosShard{}
	src.init(origin, width)
}

func tezosBlockTime(b *wire.TezosBlock) (time.Time, error) {
	return time.Parse(time.RFC3339, b.Timestamp)
}

// IngestBatch folds a batch of decoded blocks into a privately-owned shard
// — no locking; the shard's owner is the only writer.
func (s *TezosShard) IngestBatch(batch []any) error {
	blocks, times, err := parseBatch(batch, "tezos", tezosBlockTime)
	if err != nil {
		return err
	}
	for i, b := range blocks {
		s.ingest(b, times[i])
	}
	return nil
}

// IngestBatch folds a batch of decoded blocks into the aggregator, one
// lock acquisition for the whole batch.
func (a *TezosAggregator) IngestBatch(batch []any) error {
	blocks, times, err := parseBatch(batch, "tezos", tezosBlockTime)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, b := range blocks {
		a.TezosShard.ingest(b, times[i])
	}
	return nil
}

// ingest folds one block into the shard; the caller owns the shard.
func (a *TezosShard) ingest(b *wire.TezosBlock, ts time.Time) {
	a.Blocks++
	if a.FirstBlockTime.IsZero() || ts.Before(a.FirstBlockTime) {
		a.FirstBlockTime = ts
	}
	if ts.After(a.LastBlockTime) {
		a.LastBlockTime = ts
	}
	for i := range b.Operations {
		op := &b.Operations[i]
		a.Operations++
		a.OpsByKind[op.Kind]++
		a.Series.Add(ts, tezosSeriesLabel(op.Kind), 1)
		switch op.Kind {
		case "transaction":
			m := a.sentTo[op.Source]
			if m == nil {
				m = make(map[string]int64)
				a.sentTo[op.Source] = m
			}
			m[op.Destination]++
		case "proposals", "ballot":
			a.Votes = append(a.Votes, GovernanceVote{
				Time: ts, Level: b.Level, Kind: op.Kind,
				Proposal: op.Proposal, Ballot: op.Ballot,
				Rolls: op.Rolls, Source: op.Source,
			})
		}
	}
}

func tezosSeriesLabel(kind string) string {
	switch kind {
	case "endorsement":
		return "Endorsement"
	case "transaction":
		return "Transaction"
	default:
		return "Others"
	}
}

// EndorsementShare returns the fraction of operations that are endorsements
// (the paper: 81.7 %).
func (a *TezosAggregator) EndorsementShare() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.Operations == 0 {
		return 0
	}
	return float64(a.OpsByKind["endorsement"]) / float64(a.Operations)
}

// ConsensusShare returns the fraction of consensus-related operations
// (endorsements + seed nonces + double-baking evidence).
func (a *TezosAggregator) ConsensusShare() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.Operations == 0 {
		return 0
	}
	n := a.OpsByKind["endorsement"] + a.OpsByKind["seed_nonce_revelation"] +
		a.OpsByKind["double_baking_evidence"]
	return float64(n) / float64(a.Operations)
}

// TezosSenderProfile is one Figure 6 row: fan-out statistics of a sender.
type TezosSenderProfile struct {
	Sender           string
	Sent             int64
	UniqueReceivers  int
	AvgPerReceiver   float64
	StdevPerReceiver float64
}

// TopSenders returns the k most active transaction senders with their
// per-receiver average and standard deviation (Figure 6). The paper uses
// these statistics to distinguish airdrop-style fan-out (one tx to tens of
// thousands of receivers) from service traffic.
func (a *TezosAggregator) TopSenders(k int) []TezosSenderProfile {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TezosSenderProfile, 0, len(a.sentTo))
	for sender, receivers := range a.sentTo {
		var w stats.Welford
		var sent int64
		for _, n := range receivers {
			w.Add(float64(n))
			sent += n
		}
		out = append(out, TezosSenderProfile{
			Sender:           sender,
			Sent:             sent,
			UniqueReceivers:  len(receivers),
			AvgPerReceiver:   w.Mean(),
			StdevPerReceiver: w.SampleStdev(),
		})
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

// VoteSeries aggregates governance votes into cumulative per-day counts for
// one period kind, keyed by the series label (proposal hash during proposal
// periods, ballot choice during voting periods). This reproduces the three
// panels of Figure 9.
func (a *TezosAggregator) VoteSeries(kind string, bucket time.Duration) *stats.TimeSeries {
	a.mu.Lock()
	defer a.mu.Unlock()
	var first time.Time
	for _, v := range a.Votes {
		if v.Kind != kind {
			continue
		}
		if first.IsZero() || v.Time.Before(first) {
			first = v.Time
		}
	}
	if first.IsZero() {
		return stats.NewTimeSeries(time.Unix(0, 0).UTC(), bucket)
	}
	s := stats.NewTimeSeries(first, bucket)
	for _, v := range a.Votes {
		if v.Kind != kind {
			continue
		}
		label := v.Proposal
		if v.Kind == "ballot" {
			label = v.Ballot
		}
		s.Add(v.Time, label, v.Rolls)
	}
	return s
}
