package wire

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The fuzz targets hold each hand-rolled scanner to its reference — for a
// block decoder project(json.Unmarshal(full shape)), for the envelope split
// json.Unmarshal into the same struct — on arbitrary bytes: it may refuse
// anything, it may never accept what encoding/json rejects, what it accepts
// comes to the same value, and it never panics. One codec and one struct
// live through a whole run, so a payload is also decoded over whatever the
// ones before it left behind. Each decode must also allocate no more than
// its payload's length can account for (decodeAllocPerByte).
//
// Seeds: the alloc_test fixtures, the strict-input table, one payload per
// chain the simulator built and rpcserve rendered (testdata/*.json; at most
// two transactions per distinct shape are kept of the busiest block), and
// for the block decoders fuzzScanEdges, where plainStr's straight path
// gives way to the general one. What a run finds is committed under testdata/fuzz/<target>/.

// fuzzScanEdges is scanEdges at the strings that fill seven, eight, fifteen
// and sixteen bytes besides the probe: the payloads around the eight-byte
// scan's step that seed the block decoders' fuzz targets.
func fuzzScanEdges(edge func(eos, tezos, xrp []byte)) {
	for _, n := range []int{7, 8, 15, 16} {
		scanEdges(n, edge)
	}
}

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
	// The allocation bound is read on a struct of its own, so reused
	// still reaches agree holding what the previous payload left behind.
	var reused, measured P
	f.Fuzz(func(t *testing.T, raw []byte) {
		most := uint64(decodeAllocPerByte*len(raw) + decodeAllocFixed)
		if got := cc.decodeAlloc(c, raw, &measured); got > most {
			// MemStats counts the whole process, and the fuzzing engine's
			// own goroutines allocate now and then: a decode is over the
			// bound only when a second reading is too.
			if got = cc.decodeAlloc(c, raw, &measured); got > most {
				t.Fatalf("decoding %d bytes allocated %d bytes, over the bound of %d", len(raw), got, most)
			}
		}
		cc.agree(t, c, raw, &reused)
	})
}

// The bytes one exported decode may allocate: decodeAllocPerByte for each
// byte of the payload, plus decodeAllocFixed. The scanner allocates only
// the strings it interns; what costs is the encoding/json fallback, which
// grows a full-shape slice element by element. The dearest input per byte
// is a payload the scanner refuses (a case-folded key is enough) holding an
// array of empty objects: each three bytes cost one full-shape element,
// and reflect's slice growth allocates about five times the final slice
// over a long array. Measured over 10 to 100,000 such elements:
// XRP transactions at most 324 bytes per payload byte, Tezos operations
// 229, EOS transactions 108, and the XRP envelope 11 (a result nested in
// arrays); 512 leaves half as much again above the dearest. The fixed part
// is the full shape, the decode state and the error of a refusal: at most
// 5,000 bytes measured on payloads under 64 bytes.
const (
	decodeAllocPerByte = 512
	decodeAllocFixed   = 8 << 10
)

// decodeAlloc runs the exported decoder on raw and returns the bytes the
// process allocated meanwhile.
func (cc chainCase[F, P]) decodeAlloc(c *Codec, raw []byte, got *P) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cc.decode(c, raw, got)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func FuzzDecodeEOSBlock(f *testing.F) {
	fuzzScanEdges(func(eos, _, _ []byte) { f.Add(eos) })
	fuzzDecoder(f, eosCase, eosFixture(), simulated(f, "eos_block.json"))
}

func FuzzDecodeTezosBlock(f *testing.F) {
	fuzzScanEdges(func(_, tezos, _ []byte) { f.Add(tezos) })
	fuzzDecoder(f, tezosCase, tezosFixture(), simulated(f, "tezos_block.json"))
}

func FuzzDecodeXRPLedgerResult(f *testing.F) {
	fuzzScanEdges(func(_, _, xrp []byte) { f.Add(xrp) })
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
