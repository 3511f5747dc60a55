package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/wire"
)

// TestChainSummaryOrderIndependent is the property the archive replay path
// rests on: however blocks arrive (live crawl worker interleavings vs.
// replay interleavings), the rendered figures are byte-identical.
func TestChainSummaryOrderIndependent(t *testing.T) {
	mkBlocks := func() []*wire.EOSBlock {
		ts := chain.ObservationStart
		var blocks []*wire.EOSBlock
		for i := 0; i < 12; i++ {
			blocks = append(blocks, eosBlock(i+1, ts.Add(time.Duration(i)*time.Hour),
				[]wire.EOSActionJSON{transfer("eosio.token", "alice", "bob", "1.0000 EOS")},
				[]wire.EOSActionJSON{eosAction("whaleextrust", "verifytrade2", "whaleextrust", map[string]string{
					"buyer": "trader1", "seller": "trader1", "quantity": "5.0000 EOS",
				})},
			))
		}
		return blocks
	}

	forward := newShard[*EOSShard]()
	for _, b := range mkBlocks() {
		if err := forward.IngestBatch([]any{b}); err != nil {
			t.Fatal(err)
		}
	}
	backward := newShard[*EOSShard]()
	blocks := mkBlocks()
	for i := len(blocks) - 1; i >= 0; i-- {
		if err := backward.IngestBatch([]any{blocks[i]}); err != nil {
			t.Fatal(err)
		}
	}

	a, b := forward.Summary().Render(), backward.Summary().Render()
	if a != b {
		t.Fatalf("summaries differ by ingestion order:\n%s\nvs\n%s", a, b)
	}
}

// TestChainSummaryEOSContent pins the summary's whole line set: what the
// paper's sections print (§4.1's wash trades, boomerangs and EIDOS share)
// is not repeated here, even for a shard that holds a settled self-trade.
func TestChainSummaryEOSContent(t *testing.T) {
	a := newShard[*EOSShard]()
	ts := chain.ObservationStart
	for i := 0; i < 4; i++ {
		txs := [][]wire.EOSActionJSON{{transfer("eosio.token", "alice", "bob", "1.0000 EOS")}}
		if i == 0 {
			txs = append(txs, []wire.EOSActionJSON{eosAction("whaleextrust", "verifytrade2", "whaleextrust", map[string]string{
				"buyer": "trader1", "seller": "trader1", "quantity": "5.0000 EOS",
			})})
		}
		if err := a.IngestBatch([]any{eosBlock(i+1, ts.Add(time.Duration(i)*time.Second), txs...)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.Trades) != 1 {
		t.Fatalf("shard holds %d trades, want the one self-trade", len(a.Trades))
	}
	assertLines(t, a.Summary().Render(),
		"--- eos figures ---",
		"blocks:          4",
		"txs/ops:         5",
		"window:          2019-10-01T00:00:00Z .. 2019-10-01T00:00:03Z",
		"observed tps:    1.667",
		"bucket p50/p90/p99: 5.0 / 5.0 / 5.0",
		"types:",
		"  transfer                        4   80.0%",
		"  others                          1   20.0%",
	)
}

// TestChainSummaryTezosAndXRP pins both summaries' whole line sets: Tezos'
// endorsement share (Figure 1) and XRP's failed count (Figures 3c and 7)
// are printed by the sections alone.
func TestChainSummaryTezosAndXRP(t *testing.T) {
	tz := newShard[*TezosShard]()
	if err := tz.IngestBatch([]any{tezosBlock(1, chain.ObservationStart,
		wire.TezosOperationJSON{Kind: "endorsement", Level: 1, SlotCount: 1},
		wire.TezosOperationJSON{Kind: "transaction", Source: "tz1a", Destination: "tz1b", Amount: 5},
	)}); err != nil {
		t.Fatal(err)
	}
	assertLines(t, tz.Summary().Render(),
		"--- tezos figures ---",
		"blocks:          1",
		"txs/ops:         2",
		"window:          2019-10-01T00:00:00Z .. 2019-10-01T00:00:00Z",
		"observed tps:    0.000",
		"bucket p50/p90/p99: 2.0 / 2.0 / 2.0",
		"types:",
		"  endorsement                     1   50.0%",
		"  transaction                     1   50.0%",
	)

	x := newShard[*XRPShard]()
	if err := x.IngestBatch([]any{xrpLedger(1, chain.ObservationStart,
		payment("rA", "rB", xrpAmt("XRP", "", 10), "tesSUCCESS"),
		payment("rA", "rB", xrpAmt("XRP", "", 10), "tecUNFUNDED_PAYMENT"),
	)}); err != nil {
		t.Fatal(err)
	}
	if x.Failed != 1 {
		t.Fatalf("shard counts %d failed transactions, want 1", x.Failed)
	}
	assertLines(t, x.Summary().Render(),
		"--- xrp figures ---",
		"blocks:          1",
		"txs/ops:         2",
		"window:          2019-10-01T00:00:00Z .. 2019-10-01T00:00:00Z",
		"observed tps:    0.000",
		"bucket p50/p90/p99: 2.0 / 2.0 / 2.0",
		"types:",
		"  Payment                         2  100.0%",
	)
}

// assertLines fails unless out is exactly the given lines, in order.
func assertLines(t *testing.T, out string, lines ...string) {
	t.Helper()
	if want := strings.Join(lines, "\n") + "\n"; out != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", out, want)
	}
}

func TestChainSummaryEmpty(t *testing.T) {
	out := newShard[*TezosShard]().Summary().Render()
	if !strings.Contains(out, "window:          (empty)") {
		t.Fatalf("empty summary:\n%s", out)
	}
}
