package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The codec's contract is equivalence with encoding/json in both
// directions: Append* must render byte for byte what json.Marshal renders,
// and Decode* of any marshaled payload must leave exactly the projection of
// what json.Unmarshal populates. testing/quick drives randomized structs —
// including hostile strings (control characters, quotes, non-ASCII) and
// full-range integers — through both paths, the same style of generator
// the xrp package's property tests use for ledger operations.

// checkRoundTrip marshals v via both paths, failing on the first byte
// divergence, and returns the payload for the decode half.
func checkRoundTrip(t *testing.T, v any, encode func() []byte) ([]byte, bool) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	got := encode()
	if !bytes.Equal(got, want) {
		t.Logf("encode mismatch:\n wire: %s\n json: %s", got, want)
		return nil, false
	}
	return want, true
}

// mustScan fails the test when the scanner alone refuses a payload the
// repo's own encoders produced: the fallback would hide that behind a
// correct but slow decode.
func mustScan[F, P any](t *testing.T, cc chainCase[F, P], c *Codec, raw []byte) {
	t.Helper()
	if !cc.accepts(c, raw) {
		t.Fatalf("the scanner refuses a canonical payload: %s", raw)
	}
}

func TestEOSBlockRoundTripMatchesStdlib(t *testing.T) {
	c := NewCodec()
	f := func(b EOSBlockJSON) bool {
		raw, ok := checkRoundTrip(t, &b, func() []byte { return c.AppendEOSBlock(nil, &b) })
		if ok {
			mustScan(t, eosCase, c, raw)
			eosCase.agree(t, c, raw, new(EOSBlock))
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTezosBlockRoundTripMatchesStdlib(t *testing.T) {
	c := NewCodec()
	f := func(b TezosBlockJSON) bool {
		raw, ok := checkRoundTrip(t, &b, func() []byte { return c.AppendTezosBlock(nil, &b) })
		if ok {
			mustScan(t, tezosCase, c, raw)
			tezosCase.agree(t, c, raw, new(TezosBlock))
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// xrpEnvelope wraps a marshaled ledger the way a rippled ledger response
// does — the only form the collector decodes.
func xrpEnvelope(ledger []byte, index int64) []byte {
	raw, err := json.Marshal(struct {
		Ledger      json.RawMessage `json:"ledger"`
		LedgerIndex int64           `json:"ledger_index"`
		Validated   bool            `json:"validated"`
	}{ledger, index, true})
	if err != nil {
		panic(err)
	}
	return raw
}

func TestXRPLedgerRoundTripMatchesStdlib(t *testing.T) {
	c := NewCodec()
	f := func(l XRPLedgerJSON) bool {
		raw, ok := checkRoundTrip(t, &l, func() []byte { return c.AppendXRPLedger(nil, &l) })
		if ok {
			raw = xrpEnvelope(raw, l.LedgerIndex)
			mustScan(t, xrpCase, c, raw)
			xrpCase.agree(t, c, raw, new(XRPLedger))
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestXRPLedgerResultEnvelope checks the collector-side envelope decode
// against the stdlib equivalent, envelope members in encoding/json's order.
func TestXRPLedgerResultEnvelope(t *testing.T) {
	c := NewCodec()
	f := func(l XRPLedgerJSON, index int64) bool {
		env := struct {
			Ledger      XRPLedgerJSON `json:"ledger"`
			LedgerIndex int64         `json:"ledger_index"`
			Validated   bool          `json:"validated"`
		}{l, index, true}
		raw, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		xrpCase.agree(t, c, raw, new(XRPLedger))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeReusedStructs drives many random payloads through one pooled
// struct per chain, proving a revived arena struct decodes
// indistinguishably from a fresh one (no stale transactions, actions,
// members or amounts leak between payloads).
func TestDecodeReusedStructs(t *testing.T) {
	c := NewCodec()
	rng := rand.New(rand.NewSource(7))
	reusedEOS := GetEOSBlock()
	defer PutEOSBlock(reusedEOS)
	reusedTezos := GetTezosBlock()
	defer PutTezosBlock(reusedTezos)
	reusedXRP := GetXRPLedger()
	defer PutXRPLedger(reusedXRP)

	random := func(v any) []byte {
		val, ok := quick.Value(reflect.TypeOf(v), rng)
		if !ok {
			t.Fatal("quick.Value failed")
		}
		raw, err := json.Marshal(val.Interface())
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			eosCase.agree(t, c, random(EOSBlockJSON{}), reusedEOS)
		case 1:
			tezosCase.agree(t, c, random(TezosBlockJSON{}), reusedTezos)
		default:
			xrpCase.agree(t, c, xrpEnvelope(random(XRPLedgerJSON{}), int64(i)), reusedXRP)
		}
	}
}
