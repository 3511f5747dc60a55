package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/wire"
)

// The sharded-aggregation determinism property: any partition of a block
// set across any number of shards, ingested in any interleaving and merged
// in any order, must render byte-identical figures to the single-shard
// path. This is the invariant the CI archive job's live-vs-replay-vs-
// parallel diff rests on, checked here at unit scale with adversarial
// randomization for each of the three chains.

func testShardedRenders[B any, A interface {
	aggregator
	Decoder() Decoder
}](
	t *testing.T,
	blocks []B,
	newAgg func() A,
	render func(A) string,
) {
	t.Helper()
	// Baseline: every block through the locked single-shard path, in one
	// batch.
	base := newAgg()
	if err := base.IngestBatch(asBatch(blocks)); err != nil {
		t.Fatal(err)
	}
	want := render(base)
	if want == "" {
		t.Fatal("baseline render is empty — generator produced no data")
	}

	// The shards come from the aggregator's own decoder, as the ingest pool
	// takes them: merged once at drain, or wrapped in PeriodicMerge so they
	// also fold into the aggregator mid-ingest, every other batch.
	for _, mode := range []struct {
		name string
		wrap func(Decoder) Decoder
	}{
		{"drain-merge", func(d Decoder) Decoder { return d }},
		{"periodic-merge", func(d Decoder) Decoder { return PeriodicMerge(d, 2) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			for iter := 0; iter < 12; iter++ {
				agg := newAgg()
				dec := mode.wrap(agg.Decoder()).(ShardedDecoder)
				if _, ok := dec.(BatchReleaser); !ok {
					t.Fatal("decoder lost BatchReleaser: the ingest pool would never recycle its arena structs")
				}
				shardCount := 1 + rng.Intn(7)
				shards := make([]Shard, shardCount)
				for i := range shards {
					shards[i] = dec.NewShard()
				}
				// Random partition of blocks to shards…
				assign := make([][]B, shardCount)
				for _, b := range blocks {
					w := rng.Intn(shardCount)
					assign[w] = append(assign[w], b)
				}
				// …ingested in randomly sized batches, interleaved round-robin
				// across shards so no shard sees its blocks contiguously.
				remaining := shardCount
				cursors := make([]int, shardCount)
				for remaining > 0 {
					w := rng.Intn(shardCount)
					if cursors[w] >= len(assign[w]) {
						continue
					}
					n := 1 + rng.Intn(4)
					if rest := len(assign[w]) - cursors[w]; n > rest {
						n = rest
					}
					if err := shards[w].IngestBatch(asBatch(assign[w][cursors[w] : cursors[w]+n])); err != nil {
						t.Fatal(err)
					}
					cursors[w] += n
					if cursors[w] >= len(assign[w]) {
						remaining--
					}
				}
				// Merge in random order.
				for _, w := range rng.Perm(shardCount) {
					shards[w].Merge()
				}
				if got := render(agg); got != want {
					t.Fatalf("iter %d (%d shards): sharded render diverged\n--- single-shard ---\n%s\n--- sharded ---\n%s",
						iter, shardCount, want, got)
				}
			}
		})
	}
}

// asBatch converts a typed block slice into the []any batch shape the
// ShardState.IngestBatch contract takes.
func asBatch[B any](bs []B) []any {
	batch := make([]any, len(bs))
	for i, b := range bs {
		batch[i] = b
	}
	return batch
}

// genEOSBlocks fabricates EOS blocks exercising every aggregate: token and
// non-token transfers, EIDOS boomerangs, DEX trades, account and system
// actions, several contracts, senders and time buckets.
func genEOSBlockJSONs(n int) []*wire.EOSBlockJSON {
	rng := rand.New(rand.NewSource(7))
	contracts := []string{"eosio.token", "eidosonecoin", "betdicetasks", "whaleextrust", "randomapp111"}
	actors := []string{"alice", "bob", "carol", "dave", "whale1", "whale2"}
	blocks := make([]*wire.EOSBlockJSON, n)
	for i := range blocks {
		b := &wire.EOSBlockJSON{
			BlockNum:  uint32(i + 1),
			Timestamp: chain.ObservationStart.Add(time.Duration(i) * 4 * time.Hour).Format("2006-01-02T15:04:05.000"),
			Producer:  "eosio",
		}
		for t := 0; t < 1+rng.Intn(3); t++ {
			var trx wire.EOSTrxJSON
			trx.Status = "executed"
			from, to := actors[rng.Intn(len(actors))], actors[rng.Intn(len(actors))]
			qty := fmt.Sprintf("%d.%04d EOS", 1+rng.Intn(50), rng.Intn(10000))
			switch rng.Intn(6) {
			case 0: // boomerang pair through the EIDOS contract
				trx.Trx.Transaction.Actions = []wire.EOSActionJSON{
					{Account: "eosio.token", Name: "transfer",
						Authorization: []map[string]string{{"actor": from}},
						Data:          map[string]string{"from": from, "to": "eidosonecoin", "quantity": qty}},
					{Account: "eidosonecoin", Name: "transfer",
						Authorization: []map[string]string{{"actor": "eidosonecoin"}},
						Data:          map[string]string{"from": "eidosonecoin", "to": from, "quantity": qty}},
				}
			case 1: // DEX settlement (wash-trade input)
				buyer := actors[rng.Intn(2)+4] // whale1/whale2 dominate
				seller := buyer
				if rng.Intn(3) == 0 {
					seller = actors[rng.Intn(len(actors))]
				}
				trx.Trx.Transaction.Actions = []wire.EOSActionJSON{{
					Account: "whaleextrust", Name: "verifytrade2",
					Authorization: []map[string]string{{"actor": buyer}},
					Data: map[string]string{
						"buyer": buyer, "seller": seller,
						"quantity": qty,
					}}}
			case 2: // account action
				trx.Trx.Transaction.Actions = []wire.EOSActionJSON{{
					Account: "eosio", Name: "newaccount",
					Authorization: []map[string]string{{"actor": from}},
					Data:          map[string]string{"creator": from}}}
			case 3: // other system action
				trx.Trx.Transaction.Actions = []wire.EOSActionJSON{{
					Account: "eosio", Name: "delegatebw",
					Authorization: []map[string]string{{"actor": from}},
					Data:          map[string]string{"from": from}}}
			default: // plain transfer through a random contract
				trx.Trx.Transaction.Actions = []wire.EOSActionJSON{{
					Account: contracts[rng.Intn(len(contracts))], Name: "transfer",
					Authorization: []map[string]string{{"actor": from}},
					Data:          map[string]string{"from": from, "to": to, "quantity": qty}}}
			}
			b.Transactions = append(b.Transactions, trx)
		}
		blocks[i] = b
	}
	return blocks
}

// projectAll returns what a decode would leave of each full wire shape.
func projectAll[F, P any](full []*F, project func(*F, *P)) []*P {
	out := make([]*P, len(full))
	for i, f := range full {
		out[i] = new(P)
		project(f, out[i])
	}
	return out
}

func genEOSBlocks(n int) []*wire.EOSBlock {
	return projectAll(genEOSBlockJSONs(n), wire.ProjectEOSBlock)
}

func TestShardedEOSRenderByteIdentical(t *testing.T) {
	testShardedRenders(t, genEOSBlocks(64),
		func() *EOSAggregator { return NewEOSAggregator(chain.ObservationStart, 6*time.Hour) },
		func(a *EOSAggregator) string { return SummarizeEOS(a).Render() },
	)
}

// genTezosBlocks fabricates Tezos blocks with endorsements, transactions,
// governance votes and rarer kinds.
func genTezosBlockJSONs(n int) []*wire.TezosBlockJSON {
	rng := rand.New(rand.NewSource(11))
	srcs := []string{"tz1alice", "tz1bob", "tz1carol", "tz1whale"}
	blocks := make([]*wire.TezosBlockJSON, n)
	for i := range blocks {
		b := &wire.TezosBlockJSON{
			Level:     int64(i + 1),
			Timestamp: chain.ObservationStart.Add(time.Duration(i) * 3 * time.Hour).Format(time.RFC3339),
			Baker:     "tz1baker",
		}
		for o := 0; o < 2+rng.Intn(4); o++ {
			src := srcs[rng.Intn(len(srcs))]
			switch rng.Intn(5) {
			case 0, 1:
				b.Operations = append(b.Operations, wire.TezosOperationJSON{
					Kind: "endorsement", Source: src, Level: int64(i), SlotCount: 1 + rng.Intn(4)})
			case 2:
				b.Operations = append(b.Operations, wire.TezosOperationJSON{
					Kind: "transaction", Source: src,
					Destination: srcs[rng.Intn(len(srcs))], Amount: int64(rng.Intn(100000))})
			case 3:
				b.Operations = append(b.Operations, wire.TezosOperationJSON{
					Kind: "ballot", Source: src, Proposal: "PsBabyM1", Ballot: []string{"yay", "nay", "pass"}[rng.Intn(3)],
					Rolls: int64(1 + rng.Intn(500))})
			default:
				b.Operations = append(b.Operations, wire.TezosOperationJSON{
					Kind: "seed_nonce_revelation", Source: src})
			}
		}
		blocks[i] = b
	}
	return blocks
}

func genTezosBlocks(n int) []*wire.TezosBlock {
	return projectAll(genTezosBlockJSONs(n), wire.ProjectTezosBlock)
}

func TestShardedTezosRenderByteIdentical(t *testing.T) {
	testShardedRenders(t, genTezosBlocks(64),
		func() *TezosAggregator { return NewTezosAggregator(chain.ObservationStart, 6*time.Hour) },
		func(a *TezosAggregator) string { return SummarizeTezos(a).Render() },
	)
}

// genXRPLedgers fabricates ledgers with native and IOU payments, failures,
// offers (executed and resting) and destination tags.
func genXRPLedgerJSONs(n int) []*wire.XRPLedgerJSON {
	rng := rand.New(rand.NewSource(13))
	accts := []string{"rAlice", "rBob", "rHuobi", "rMill"}
	ledgers := make([]*wire.XRPLedgerJSON, n)
	for i := range ledgers {
		l := &wire.XRPLedgerJSON{
			LedgerIndex: int64(i + 1),
			CloseTime:   chain.ObservationStart.Add(time.Duration(i) * 2 * time.Hour).Format(time.RFC3339),
		}
		for t := 0; t < 2+rng.Intn(4); t++ {
			acct := accts[rng.Intn(len(accts))]
			result := "tesSUCCESS"
			if rng.Intn(4) == 0 {
				result = "tecPATH_DRY"
			}
			switch rng.Intn(3) {
			case 0, 1:
				tx := wire.XRPTxJSON{
					Hash: fmt.Sprintf("TX%06d%02d", i, t), TransactionType: "Payment",
					Account: acct, Destination: accts[rng.Intn(len(accts))],
					Result: result, Sequence: uint32(t + 1),
				}
				if acct == "rHuobi" {
					tx.DestinationTag = 104398
				}
				if rng.Intn(3) == 0 {
					tx.Amount = &wire.XRPAmountJSON{Currency: "BTC", Issuer: "rGateway", Value: int64(1 + rng.Intn(1000))}
				} else {
					tx.Amount = &wire.XRPAmountJSON{Currency: "XRP", Value: int64(1 + rng.Intn(5_000_000))}
				}
				l.Transactions = append(l.Transactions, tx)
			case 2:
				l.Transactions = append(l.Transactions, wire.XRPTxJSON{
					Hash: fmt.Sprintf("OF%06d%02d", i, t), TransactionType: "OfferCreate",
					Account: acct, Result: result, Sequence: uint32(100 + t),
					Executed:        rng.Intn(4) == 0,
					RestingSequence: uint32(rng.Intn(2) * (50 + t)),
				})
			}
		}
		l.TxCount = len(l.Transactions)
		ledgers[i] = l
	}
	return ledgers
}

func genXRPLedgers(n int) []*wire.XRPLedger {
	return projectAll(genXRPLedgerJSONs(n), wire.ProjectXRPLedger)
}

func TestShardedXRPRenderByteIdentical(t *testing.T) {
	testShardedRenders(t, genXRPLedgers(64),
		func() *XRPAggregator { return NewXRPAggregator(chain.ObservationStart, 6*time.Hour) },
		func(a *XRPAggregator) string { return SummarizeXRP(a).Render() },
	)
}
