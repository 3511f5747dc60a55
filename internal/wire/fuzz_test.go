package wire

import (
	"os"
	"path/filepath"
	"testing"
)

// The fuzz targets hold each hand-rolled scanner to its reference — for a
// block decoder project(json.Unmarshal(full shape)), for the envelope split
// json.Unmarshal into the same struct — on arbitrary bytes: it may refuse
// anything, it may never accept what encoding/json rejects, what it accepts
// comes to the same value, and it never panics. One codec and one struct
// live through a whole run, so a payload is also decoded over whatever the
// ones before it left behind.
//
// Seeds: the alloc_test fixtures, the strict-input table, and one payload
// per chain the simulator built and rpcserve rendered (testdata/*.json; at
// most two transactions per distinct shape are kept of the busiest block).
// What a run finds is committed under testdata/fuzz/<target>/.

// simulated reads a simulator-built payload from testdata.
func simulated(f *testing.F, name string) []byte {
	payload, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	return payload
}

// fuzzDecoder seeds cc's target with the canonical payloads, which the
// scanner alone must take, and the strict-input table.
func fuzzDecoder[F, P any](f *testing.F, cc chainCase[F, P], canonical ...[]byte) {
	c := NewCodec()
	for _, raw := range canonical {
		f.Add(raw)
		if !cc.accepts(c, raw) {
			f.Fatal("the scanner refuses a canonical seed")
		}
	}
	for _, raw := range strictCases {
		f.Add([]byte(raw))
	}
	var reused P
	f.Fuzz(func(t *testing.T, raw []byte) {
		cc.agree(t, c, raw, &reused)
	})
}

func FuzzDecodeEOSBlock(f *testing.F) {
	fuzzDecoder(f, eosCase, eosFixture(), simulated(f, "eos_block.json"))
}

func FuzzDecodeTezosBlock(f *testing.F) {
	fuzzDecoder(f, tezosCase, tezosFixture(), simulated(f, "tezos_block.json"))
}

func FuzzDecodeXRPLedgerResult(f *testing.F) {
	fuzzDecoder(f, xrpCase, xrpFixture(true), simulated(f, "xrp_ledger_result.json"))
}

// FuzzSplitXRPEnvelope: the frames are the two XRP results as rpcserve
// wraps them. testdata/fuzz/FuzzSplitXRPEnvelope holds the envelope's own
// edges: repeated and case-folded keys, a null error, a null and a repeated
// result, white space around the result, ids that are not integers, a NUL
// after the value, trailing data.
func FuzzSplitXRPEnvelope(f *testing.F) {
	fuzzDecoder(f, envelopeCase, xrpResponse(xrpFixture(true)), xrpResponse(simulated(f, "xrp_ledger_result.json")))
}
