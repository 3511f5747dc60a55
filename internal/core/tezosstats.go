package core

import (
	"math"
	"sort"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// TezosShard is the mutable aggregate state for a partition of Tezos
// blocks: one goroutine owns it, disjoint shards merge with Merge, and all
// of its statistics are order-independent (see EOSShard). It accumulates
// Figure 1's operation-kind distribution, Figure 3b's throughput series,
// Figure 6's top-sender fan-out statistics and Figure 9's governance vote
// series.
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

// GovernanceVote is one proposals/ballot operation as observed on chain.
type GovernanceVote struct {
	Time     time.Time
	Kind     string // "proposals" or "ballot"
	Proposal string
	Ballot   string // yay/nay/pass for ballots
	Rolls    int64
}

// blank returns an empty shard with s's window.
func (s *TezosShard) blank() TezosShard {
	var n TezosShard
	n.init(s.Series.Origin(), s.Series.Width())
	return n
}

// init allocates a shard's mutable containers.
func (s *TezosShard) init(origin time.Time, bucket time.Duration) {
	s.OpsByKind = make(map[string]int64)
	s.Series = stats.NewTimeSeries(origin, bucket)
	s.sentTo = make(map[string]map[string]int64)
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

// merge folds src (covering disjoint blocks) into s and resets src, which
// the hand-over of src's sender maps relies on (mergeNested).
func (s *TezosShard) merge(src *TezosShard) {
	s.Blocks += src.Blocks
	s.Operations += src.Operations
	mergeCounts(s.OpsByKind, src.OpsByKind)
	s.Series.Merge(src.Series)
	mergeNested(s.sentTo, src.sentTo)
	s.Votes = append(s.Votes, src.Votes...)
	mergeWindow(&s.FirstBlockTime, &s.LastBlockTime, src.FirstBlockTime, src.LastBlockTime)
	*src = src.blank()
}

func tezosBlockTime(b *wire.TezosBlock) (time.Time, error) {
	return time.Parse(time.RFC3339, b.Timestamp)
}

// IngestBatch folds a batch of decoded blocks into a privately-owned shard
// — no locking; the shard's owner is the only writer.
func (s *TezosShard) IngestBatch(batch []any) error {
	return ingestBatch(batch, "tezos", tezosBlockTime, s.ingest)
}

// ingest folds one block into the shard; the caller owns the shard. Every
// operation of a block shares its time bucket, so the Figure 3b groups
// count into an array that reaches the series once per block.
func (a *TezosShard) ingest(b *wire.TezosBlock, ts time.Time) {
	a.Blocks++
	if a.FirstBlockTime.IsZero() || ts.Before(a.FirstBlockTime) {
		a.FirstBlockTime = ts
	}
	if ts.After(a.LastBlockTime) {
		a.LastBlockTime = ts
	}
	var byLabel [len(tezosLabels)]int64
	for i := range b.Operations {
		op := &b.Operations[i]
		a.Operations++
		a.OpsByKind[op.Kind]++
		byLabel[tezosSeriesLabel(op.Kind)]++
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
				Time: ts, Kind: op.Kind, Proposal: op.Proposal, Ballot: op.Ballot, Rolls: op.Rolls,
			})
		}
	}
	addLabels(a.Series, ts, tezosLabels[:], byLabel[:])
}

// tezosLabels are Figure 3b's operation groups, indexed by
// tezosSeriesLabel.
var tezosLabels = [...]string{"Endorsement", "Transaction", "Others"}

// tezosSeriesLabel returns an operation kind's index into tezosLabels.
func tezosSeriesLabel(kind string) int {
	switch kind {
	case "endorsement":
		return 0
	case "transaction":
		return 1
	default:
		return 2
	}
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
// per-receiver average and sample standard deviation (Figure 6). The paper
// uses these statistics to distinguish airdrop-style fan-out (one tx to tens
// of thousands of receivers) from service traffic. Both come from integer
// moments with one float division each, never from a map-ordered float sum.
func (a *TezosShard) TopSenders(k int) []TezosSenderProfile {
	out := make([]TezosSenderProfile, 0, len(a.sentTo))
	for sender, receivers := range a.sentTo {
		var sum, sumSq int64
		for _, n := range receivers {
			sum += n
			sumSq += n * n
		}
		r := int64(len(receivers))
		p := TezosSenderProfile{Sender: sender, Sent: sum, UniqueReceivers: int(r), AvgPerReceiver: float64(sum) / float64(max(r, 1))}
		if r > 1 {
			// (r·Σn² − (Σn)²) / (r·(r−1)) is the Bessel-corrected variance.
			p.StdevPerReceiver = math.Sqrt(max(0, float64(r*sumSq-sum*sum)/float64(r*(r-1))))
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

// VoteSeries aggregates governance votes into cumulative per-day counts for
// one period kind, keyed by the series label (proposal hash during proposal
// periods, ballot choice during voting periods). This reproduces the three
// panels of Figure 9.
func (a *TezosShard) VoteSeries(kind string, bucket time.Duration) *stats.TimeSeries {
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
