package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/wire"
)

// tezosBlock builds the block in its full wire shape and returns what a
// decode would leave of it.
func tezosBlock(level int64, ts time.Time, ops ...wire.TezosOperationJSON) *wire.TezosBlock {
	out := new(wire.TezosBlock)
	wire.ProjectTezosBlock(&wire.TezosBlockJSON{
		Level:      level,
		Timestamp:  ts.Format(time.RFC3339),
		Baker:      "tz1baker",
		Operations: ops,
	}, out)
	return out
}

func TestTezosAggregatorShares(t *testing.T) {
	a := NewTezosAggregator(chain.ObservationStart, 6*time.Hour)
	ts := chain.ObservationStart
	var ops []wire.TezosOperationJSON
	for i := 0; i < 23; i++ {
		ops = append(ops, wire.TezosOperationJSON{Kind: "endorsement", Level: 1, SlotCount: 1})
	}
	ops = append(ops,
		wire.TezosOperationJSON{Kind: "transaction", Source: "tz1a", Destination: "tz1b", Amount: 100},
		wire.TezosOperationJSON{Kind: "transaction", Source: "tz1a", Destination: "tz1c", Amount: 100},
		wire.TezosOperationJSON{Kind: "reveal", Source: "tz1a"},
		wire.TezosOperationJSON{Kind: "seed_nonce_revelation"},
		wire.TezosOperationJSON{Kind: "delegation", Source: "tz1a", Delegate: "tz1baker"},
	)
	if err := a.IngestBatch([]any{tezosBlock(2, ts, ops...)}); err != nil {
		t.Fatal(err)
	}
	if a.Operations != 28 {
		t.Fatalf("ops = %d", a.Operations)
	}
	if share := a.EndorsementShare(); share < 0.82 || share > 0.83 {
		t.Fatalf("endorsement share = %f (23/28)", share)
	}
	if cs := a.ConsensusShare(); cs <= a.EndorsementShare() {
		t.Fatalf("consensus share = %f", cs)
	}
	if got := a.Series.Total("Endorsement"); got != 23 {
		t.Fatalf("series endorsements = %d", got)
	}
	if got := a.Series.Total("Others"); got != 3 {
		t.Fatalf("series others = %d (reveal, seed nonce, delegation)", got)
	}
}

func TestTezosTopSendersFanOut(t *testing.T) {
	a := NewTezosAggregator(chain.ObservationStart, 6*time.Hour)
	ts := chain.ObservationStart
	var ops []wire.TezosOperationJSON
	// Airdropper: one tx each to 100 receivers (avg 1, stdev 0).
	for i := 0; i < 100; i++ {
		ops = append(ops, wire.TezosOperationJSON{
			Kind: "transaction", Source: "tz1airdrop",
			Destination: fmt.Sprintf("tz1recv%03d", i), Amount: 1,
		})
	}
	// Service: 30 txs each to 3 receivers (avg 30).
	for i := 0; i < 3; i++ {
		for j := 0; j < 30; j++ {
			ops = append(ops, wire.TezosOperationJSON{
				Kind: "transaction", Source: "tz1service",
				Destination: fmt.Sprintf("tz1client%d", i), Amount: 5,
			})
		}
	}
	a.IngestBatch([]any{tezosBlock(1, ts, ops...)})

	top := a.TopSenders(2)
	if top[0].Sender != "tz1airdrop" || top[0].Sent != 100 || top[0].UniqueReceivers != 100 {
		t.Fatalf("airdropper: %+v", top[0])
	}
	if top[0].AvgPerReceiver != 1 || top[0].StdevPerReceiver != 0 {
		t.Fatalf("airdropper stats: %+v", top[0])
	}
	if top[1].Sender != "tz1service" || top[1].AvgPerReceiver != 30 {
		t.Fatalf("service: %+v", top[1])
	}
}

func TestTezosVoteSeries(t *testing.T) {
	a := NewTezosAggregator(chain.ObservationStart, 6*time.Hour)
	day := 24 * time.Hour
	base := time.Date(2019, 8, 9, 0, 0, 0, 0, time.UTC)
	a.IngestBatch([]any{tezosBlock(1, base,
		wire.TezosOperationJSON{Kind: "ballot", Source: "tz1b1", Proposal: "PsBabyM2", Ballot: "yay", Rolls: 500},
		wire.TezosOperationJSON{Kind: "ballot", Source: "tz1b2", Proposal: "PsBabyM2", Ballot: "pass", Rolls: 100},
	)})
	a.IngestBatch([]any{tezosBlock(2, base.Add(3*day),
		wire.TezosOperationJSON{Kind: "ballot", Source: "tz1b3", Proposal: "PsBabyM2", Ballot: "yay", Rolls: 800},
	)})
	a.IngestBatch([]any{tezosBlock(3, base.Add(5*day),
		wire.TezosOperationJSON{Kind: "proposals", Source: "tz1b1", Proposal: "PsCarthage", Rolls: 700},
	)})

	ballots := a.VoteSeries("ballot", day)
	if got := ballots.Total("yay"); got != 1300 {
		t.Fatalf("yay rolls = %d", got)
	}
	if got := ballots.Total("pass"); got != 100 {
		t.Fatalf("pass rolls = %d", got)
	}
	if got := ballots.Value(3, "yay"); got != 800 {
		t.Fatalf("day-3 yay = %d", got)
	}
	proposals := a.VoteSeries("proposals", day)
	if got := proposals.Total("PsCarthage"); got != 700 {
		t.Fatalf("proposal rolls = %d", got)
	}
	// Unknown kind yields an empty series.
	if empty := a.VoteSeries("nonsense", day); empty.TotalAll() != 0 {
		t.Fatal("nonsense series not empty")
	}
}
