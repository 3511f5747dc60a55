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

func TestChainSummaryEOSContent(t *testing.T) {
	a := newShard[*EOSShard]()
	ts := chain.ObservationStart
	for i := 0; i < 4; i++ {
		if err := a.IngestBatch([]any{eosBlock(i+1, ts.Add(time.Duration(i)*time.Second),
			[]wire.EOSActionJSON{transfer("eosio.token", "alice", "bob", "1.0000 EOS")},
		)}); err != nil {
			t.Fatal(err)
		}
	}
	out := a.Summary().Render()
	for _, want := range []string{
		"--- eos figures ---",
		"blocks:          4",
		"txs/ops:         4",
		"observed tps:",
		"bucket p50/p90/p99:",
		"transfer",
		"wash trades:     0 settled",
		"boomerang txs:   0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestChainSummaryTezosAndXRP(t *testing.T) {
	tz := newShard[*TezosShard]()
	if err := tz.IngestBatch([]any{tezosBlock(1, chain.ObservationStart,
		wire.TezosOperationJSON{Kind: "endorsement", Level: 1, SlotCount: 1},
		wire.TezosOperationJSON{Kind: "transaction", Source: "tz1a", Destination: "tz1b", Amount: 5},
	)}); err != nil {
		t.Fatal(err)
	}
	out := tz.Summary().Render()
	if !strings.Contains(out, "--- tezos figures ---") || !strings.Contains(out, "endorsement") {
		t.Fatalf("tezos summary:\n%s", out)
	}
	if !strings.Contains(out, "endorsements:    50.00% of ops") {
		t.Fatalf("tezos endorsement share line wrong:\n%s", out)
	}

	x := newShard[*XRPShard]()
	if err := x.IngestBatch([]any{xrpLedger(1, chain.ObservationStart,
		payment("rA", "rB", xrpAmt("XRP", "", 10), "tesSUCCESS"),
		payment("rA", "rB", xrpAmt("XRP", "", 10), "tecUNFUNDED_PAYMENT"),
	)}); err != nil {
		t.Fatal(err)
	}
	xout := x.Summary().Render()
	if !strings.Contains(xout, "--- xrp figures ---") || !strings.Contains(xout, "failed txs:      1 (50.00%)") {
		t.Fatalf("xrp summary:\n%s", xout)
	}
}

func TestChainSummaryEmpty(t *testing.T) {
	out := newShard[*TezosShard]().Summary().Render()
	if !strings.Contains(out, "window:          (empty)") {
		t.Fatalf("empty summary:\n%s", out)
	}
}
