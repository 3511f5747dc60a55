package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
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
// alphabet of digits, symbols, ASCII and Unicode white space and bytes that
// are not UTF-8.
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
	alphabet := []string{"0", "1", "9", ".", "E", "OS", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\u200b", "\xff", "\xc2", "é"}
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
	if raceEnabled {
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
	shard := NewEOSAggregator(chain.ObservationStart, 6*time.Hour).NewState().(*EOSShard)
	shard.ingest(block, ts)
	if allocs := testing.AllocsPerRun(100, func() { shard.ingest(block, ts) }); allocs != 0 {
		t.Fatalf("EOSShard.ingest over a transfer block: %.1f allocs/block in steady state, want 0", allocs)
	}
	if shard.boomerangs == 0 || shard.VolumeBySymbol["EIDOS"] == 0 {
		t.Fatalf("the block did not exercise the transfer path: %d boomerangs, volumes %v", shard.boomerangs, shard.VolumeBySymbol)
	}
}
