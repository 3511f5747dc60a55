package wire

import (
	"os"
	"path/filepath"
	"testing"
)

// The three fuzz targets hold each hand-rolled scanner to its reference —
// project(json.Unmarshal(full shape)) — on arbitrary bytes: it may refuse
// anything, it may never accept what encoding/json rejects, what it accepts
// projects to the same value, and it never panics. One codec and one struct
// live through a whole run, so a payload is also decoded over whatever the
// ones before it left behind.
//
// Seeds: the alloc_test fixtures, the strict-input table, and one payload
// per chain the simulator built and rpcserve rendered (testdata/*.json; at
// most two transactions per distinct shape are kept of the busiest block).
// What a run finds is committed under testdata/fuzz/<target>/.

func fuzzDecoder[F, P any](f *testing.F, cc chainCase[F, P], fixture []byte, simulated string) {
	f.Add(fixture)
	payload, err := os.ReadFile(filepath.Join("testdata", simulated))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	for _, raw := range strictCases {
		f.Add([]byte(raw))
	}
	c := NewCodec()
	var reused P
	if !cc.accepts(c, payload) || !cc.accepts(c, fixture) {
		f.Fatal("the scanner refuses a canonical seed")
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		cc.agree(t, c, raw, &reused)
	})
}

func FuzzDecodeEOSBlock(f *testing.F) {
	fuzzDecoder(f, eosCase, eosFixture(), "eos_block.json")
}

func FuzzDecodeTezosBlock(f *testing.F) {
	fuzzDecoder(f, tezosCase, tezosFixture(), "tezos_block.json")
}

func FuzzDecodeXRPLedgerResult(f *testing.F) {
	fuzzDecoder(f, xrpCase, xrpFixture(true), "xrp_ledger_result.json")
}
