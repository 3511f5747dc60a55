package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/testkit"
	"repro/internal/wire"
)

// fieldsQuantity is the strings.Fields implementation splitQuantity
// replaced, kept as its reference.
func fieldsQuantity(quantity string) (amount, symbol string, ok bool) {
	fields := strings.Fields(quantity)
	if len(fields) != 2 {
		return "", "", false
	}
	return fields[0], fields[1], true
}

// TestSplitQuantityMatchesFields: exactly two fields by strings.Fields'
// rules or nothing, over hand-picked edges and a random walk through an
// alphabet of digits, symbols, ASCII and Unicode white space (every byte
// the ASCII fast path treats as space, and the Latin-1 spaces next to it),
// control bytes that are not space and bytes that are not UTF-8.
func TestSplitQuantityMatchesFields(t *testing.T) {
	check := func(q string) {
		t.Helper()
		amount, symbol, ok := splitQuantity(q)
		wantAmount, wantSymbol, wantOK := fieldsQuantity(q)
		if amount != wantAmount || symbol != wantSymbol || ok != wantOK {
			t.Fatalf("splitQuantity(%q) = %q, %q, %v; strings.Fields says %q, %q, %v",
				q, amount, symbol, ok, wantAmount, wantSymbol, wantOK)
		}
	}
	for _, q := range []string{
		"", " ", "   ", "1.0000", "1.0000 EOS", " 1.0000 EOS", "1.0000 EOS ", "  1.0000   EOS  ",
		"1.0000\tEOS", "1.0000\nEOS\r\n", "1.0000\vEOS\f", "1.0000 EOS x", "1 2 3 4", "EOS", "EOS EOS", ". EOS", "abc EOS",
		"1.0000\u00a0EOS", "1.0000\u0085EOS", "\u30001.0000\u2003EOS\u3000", "1.0000\u1680EOS\u2028X", "1.0000EOS",
		"1.0000\u200bEOS",            // zero-width space is not white space
		"1.0000\xffEOS", "\xff \xfe", // not UTF-8: never white space
		"1.0000\xc2", "\xe2\x80 EOS", // a white-space rune cut short
		"9223372036854775807.5 BIG", "1..2 X", "-1.5 NEG",
	} {
		check(q)
	}
	alphabet := []string{"0", "1", "9", ".", "E", "OS", " ", "  ", "\t", "\n", "\v", "\f", "\r", "\x00", "\x7f",
		"\u0085", "\u00a0", "\u2003", "\u3000", "\u200b", "\xff", "\xc2", "é"}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(9); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		check(b.String())
	}
}

// TestEOSIngestSteadyStateZeroAllocs: once a shard has seen a block's
// contracts, actors and symbols, folding another block of transfers — the
// shape that is 96 % of EOS traffic — allocates nothing: the quantity is
// split in place and every map key already exists.
func TestEOSIngestSteadyStateZeroAllocs(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	ts := chain.ObservationStart.Add(time.Hour)
	var txs [][]wire.EOSActionJSON
	for i := 0; i < 8; i++ {
		txs = append(txs,
			[]wire.EOSActionJSON{transfer("eosio.token", "alice", "bob", "1.0000 EOS")},
			// An EIDOS boomerang: in, refund, airdrop.
			[]wire.EOSActionJSON{
				transfer("eosio.token", "miner1", "eidosonecoin", "0.0001 EOS"),
				transfer("eosio.token", "eidosonecoin", "miner1", "0.0001 EOS"),
				transfer("eidosonecoin", "eidosonecoin", "miner1", "12.5000 EIDOS"),
			})
	}
	block := eosBlock(1, ts, txs...)
	shard := newShard[*EOSShard]()
	shard.ingest(block, ts)
	if allocs := testing.AllocsPerRun(100, func() { shard.ingest(block, ts) }); allocs != 0 {
		t.Fatalf("EOSShard.ingest over a transfer block: %.1f allocs/block in steady state, want 0", allocs)
	}
	pinBatchZeroAllocs(t, shard, block)
	if shard.boomerangs == 0 || shard.volume == 0 {
		t.Fatalf("the block did not exercise the transfer path: %d boomerangs, EOS volume %d", shard.boomerangs, shard.volume)
	}
}

// TestEOSAmountOverflowIsNotANumber: an amount whose digits, read as one
// integer, overflow an int64 is not a number. Its transfer adds nothing to
// the volume and its trade settles at 0, exactly as for a quantity
// splitQuantity refuses, instead of wrapping to a negative sum.
func TestEOSAmountOverflowIsNotANumber(t *testing.T) {
	ts := chain.ObservationStart.Add(time.Hour)
	for _, qty := range []string{
		"10000000000000000000.0000 EOS",  // 20 integer digits
		"9223372036854775808 EOS",        // MaxInt64 + 1
		"1.99999999999999999999999 EOS",  // 23 fraction digits
		"99999999999999999999999999 EOS", // far past it
		"1.9223372036854775807 EOS",      // each side fits, the 20 digits do not
	} {
		shard := newShard[*EOSShard]()
		err := shard.IngestBatch([]any{eosBlock(1, ts,
			[]wire.EOSActionJSON{transfer("eosio.token", "alice", "bob", "2.5000 EOS")},
			[]wire.EOSActionJSON{transfer("eosio.token", "alice", "bob", qty)},
			[]wire.EOSActionJSON{eosAction("whaleextrust", "verifytrade2", "whale1", map[string]string{
				"buyer": "whale1", "seller": "whale2", "quantity": qty,
			})},
		)})
		if err != nil {
			t.Fatal(err)
		}
		if got := shard.volume; got != 25_000 {
			t.Errorf("%q: EOS volume %d, want the other transfer's 25000 (2.5 EOS) alone", qty, got)
		}
		if len(shard.Trades) != 1 || shard.Trades[0].Amount != 0 {
			t.Errorf("%q: trades %+v, want one at amount 0", qty, shard.Trades)
		}
	}
	// The largest amounts that fit still count, in units of their precision.
	type units struct {
		amount    int64
		precision int
	}
	for digits, want := range map[string]units{
		"9223372036854775807":     {math.MaxInt64, 0},
		"922337203685477.5807":    {math.MaxInt64, 4},
		"000000000000000000000.5": {5, 1}, // leading zeros are no overflow
		"1.0000":                  {10_000, 4},
		"1..2":                    {12, 1}, // only the first point counts
		"-1.5":                    {15, 1}, // nor does a sign
	} {
		amount, precision, ok := amountOf(digits)
		if got := (units{amount, precision}); !ok || got != want {
			t.Errorf("amountOf(%q) = %d, %d, %v; want %d, %d, true", digits, amount, precision, ok, want.amount, want.precision)
		}
	}
	shard := newShard[*EOSShard]()
	if err := shard.IngestBatch([]any{eosBlock(1, ts,
		[]wire.EOSActionJSON{transfer("eosio.token", "alice", "bob", "922337203685477.5807 EOS")},
		// Another precision is another symbol, not the system token.
		[]wire.EOSActionJSON{transfer("eosio.token", "alice", "bob", "9223372036854775807 EOS")},
	)}); err != nil {
		t.Fatal(err)
	}
	if shard.volume != math.MaxInt64 {
		t.Errorf("EOS volume %d, want MaxInt64 from the one 4,EOS transfer", shard.volume)
	}
}

// TestTezosIngestSteadyStateZeroAllocs: once a shard has seen a block's
// kinds, senders and receivers, folding another block of endorsements and
// transactions — nearly all Tezos traffic — allocates nothing.
func TestTezosIngestSteadyStateZeroAllocs(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	ts := chain.ObservationStart.Add(time.Hour)
	var ops []wire.TezosOperationJSON
	for i := 0; i < 16; i++ {
		ops = append(ops,
			wire.TezosOperationJSON{Kind: "endorsement", Source: "tz1endorser", Level: 7, SlotCount: 2},
			wire.TezosOperationJSON{Kind: "transaction", Source: "tz1alice", Destination: "tz1bob", Amount: 100},
			wire.TezosOperationJSON{Kind: "reveal", Source: "tz1carol"})
	}
	block := tezosBlock(8, ts, ops...)
	shard := newShard[*TezosShard]()
	shard.ingest(block, ts)
	if allocs := testing.AllocsPerRun(100, func() { shard.ingest(block, ts) }); allocs != 0 {
		t.Fatalf("TezosShard.ingest: %.1f allocs/block in steady state, want 0", allocs)
	}
	pinBatchZeroAllocs(t, shard, block)
	if shard.sentTo["tz1alice"]["tz1bob"] == 0 || shard.OpsByKind["endorsement"] == 0 {
		t.Fatalf("the block did not exercise the transaction path: %v", shard.OpsByKind)
	}
}

// TestXRPIngestSteadyStateZeroAllocs: once a shard has seen a ledger's
// types, results, accounts and offers, folding another ledger of payments
// and offers allocates nothing beyond the payment list's growth, which the
// test reserves up front: every per-transaction map key already exists.
func TestXRPIngestSteadyStateZeroAllocs(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	ts := chain.ObservationStart.Add(time.Hour)
	var txs []wire.XRPTxJSON
	for i := 0; i < 8; i++ {
		tagged := payment("rHuobi", "rBob", xrpAmt("XRP", "", 5), "tesSUCCESS")
		tagged.DestinationTag = 104398
		txs = append(txs,
			payment("rAlice", "rBob", xrpAmt("XRP", "", 1), "tesSUCCESS"),
			payment("rAlice", "rBob", xrpAmt("BTC", "rGateway", 1), "tecPATH_DRY"),
			tagged,
			wire.XRPTxJSON{TransactionType: "OfferCreate", Account: "rMill", Sequence: 9,
				Result: "tesSUCCESS", Executed: true, RestingSequence: 9},
			wire.XRPTxJSON{TransactionType: "TrustSet", Account: "rAlice", Result: "tesSUCCESS"})
	}
	ledger := xrpLedger(1, ts, txs...)
	const runs = 100
	shard := newShard[*XRPShard]()
	shard.ingest(ledger, ts)
	shard.payments = slices.Grow(shard.payments, (runs+1)*(1+batchBlocks)*3*8)
	if allocs := testing.AllocsPerRun(runs, func() { shard.ingest(ledger, ts) }); allocs != 0 {
		t.Fatalf("XRPShard.ingest: %.1f allocs/ledger in steady state, want 0", allocs)
	}
	pinBatchZeroAllocs(t, shard, ledger)
	if shard.offersCreated == 0 || shard.byAccount["rHuobi"].DestTags[104398] == 0 {
		t.Fatal("the ledger did not exercise the offer and destination-tag paths")
	}
	if tags := shard.byAccount["rAlice"].DestTags; tags != nil {
		t.Fatalf("an account that never sent a tagged payment holds a tag map: %v", tags)
	}
}

// batchBlocks is the batch pinBatchZeroAllocs folds: the ingest pool's
// default.
const batchBlocks = 16

// pinBatchZeroAllocs pins IngestBatch of batchBlocks copies of a block
// whose keys the shard holds at zero allocations: the batch's block times
// parse onto the stack, and each block folds as ingest does.
func pinBatchZeroAllocs(t *testing.T, shard ShardState, block any) {
	t.Helper()
	batch := make([]any, batchBlocks)
	for i := range batch {
		batch[i] = block
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := shard.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%s IngestBatch of %d known blocks: %.1f allocs in steady state, want 0", shard.Chain(), batchBlocks, allocs)
	}
}
