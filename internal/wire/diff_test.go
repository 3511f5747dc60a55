package wire

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// chainCase is one chain's decoder with the reference it is held to:
// encoding/json into the full shape, then the chain's Project function.
// The property tests, the strict-input tables and the fuzz targets all go
// through agree.
type chainCase[F, P any] struct {
	fast      func(*Codec, []byte, *P) error // the hand-rolled scanner alone
	decode    func(*Codec, []byte, *P) error // scanner, then the stdlib fallback
	unmarshal func([]byte, *F) error
	project   func(*F, *P)
	equal     func(a, b *P) bool
}

var eosCase = chainCase[EOSBlockJSON, EOSBlock]{
	fast:      (*Codec).decodeEOSBlock,
	decode:    (*Codec).DecodeEOSBlock,
	unmarshal: func(raw []byte, full *EOSBlockJSON) error { return json.Unmarshal(raw, full) },
	project:   ProjectEOSBlock,
	equal: func(a, b *EOSBlock) bool {
		return a.Timestamp == b.Timestamp && slices.EqualFunc(a.Transactions, b.Transactions,
			func(x, y EOSTrx) bool { return slices.Equal(x.Actions, y.Actions) })
	},
}

var tezosCase = chainCase[TezosBlockJSON, TezosBlock]{
	fast:      (*Codec).decodeTezosBlock,
	decode:    (*Codec).DecodeTezosBlock,
	unmarshal: func(raw []byte, full *TezosBlockJSON) error { return json.Unmarshal(raw, full) },
	project:   ProjectTezosBlock,
	equal: func(a, b *TezosBlock) bool {
		return a.Level == b.Level && a.Timestamp == b.Timestamp && slices.Equal(a.Operations, b.Operations)
	},
}

var xrpCase = chainCase[XRPLedgerJSON, XRPLedger]{
	fast:   (*Codec).decodeXRPLedgerResult,
	decode: (*Codec).DecodeXRPLedgerResult,
	unmarshal: func(raw []byte, full *XRPLedgerJSON) error {
		var res struct {
			Ledger XRPLedgerJSON `json:"ledger"`
		}
		err := json.Unmarshal(raw, &res)
		*full = res.Ledger
		return err
	},
	project: ProjectXRPLedger,
	equal: func(a, b *XRPLedger) bool {
		return a.CloseTime == b.CloseTime && slices.Equal(a.Transactions, b.Transactions)
	},
}

// envelopeCase holds the response-envelope split to encoding/json into the
// same struct; nothing is projected away.
var envelopeCase = chainCase[XRPEnvelope, XRPEnvelope]{
	fast:      (*Codec).splitXRPEnvelope,
	decode:    (*Codec).SplitXRPEnvelope,
	unmarshal: func(frame []byte, full *XRPEnvelope) error { return json.Unmarshal(frame, full) },
	project:   func(full, into *XRPEnvelope) { *into = *full },
	equal: func(a, b *XRPEnvelope) bool {
		return a.ID == b.ID && a.Status == b.Status && a.Error == b.Error && bytes.Equal(a.Result, b.Result)
	},
}

// xrpResponse wraps a result in the envelope rpcserve renders around it.
func xrpResponse(result []byte) []byte {
	return append(append([]byte(`{"id":7,"status":"success","type":"response","result":`), result...), '}')
}

// agree holds the decoder to its reference on one payload. The scanner may
// refuse anything, but what it accepts encoding/json accepts too and
// projects to the same value; the exported decoder accepts exactly what
// encoding/json accepts, again with the same value. got is what both decode
// into: pass a struct earlier payloads have been through to cover reuse.
func (cc chainCase[F, P]) agree(t testing.TB, c *Codec, raw []byte, got *P) {
	t.Helper()
	var full F
	stdErr := cc.unmarshal(raw, &full)
	var want P
	cc.project(&full, &want)

	if err := cc.fast(c, raw, got); err == nil {
		if stdErr != nil {
			t.Fatalf("the scanner accepts what encoding/json rejects (%v): %q", stdErr, raw)
		}
		if !cc.equal(got, &want) {
			t.Fatalf("scanner and reference disagree on %q\n scanner: %+v\n reference: %+v", raw, *got, want)
		}
	}
	err := cc.decode(c, raw, got)
	if (err == nil) != (stdErr == nil) {
		t.Fatalf("decode error %v, encoding/json error %v on %q", err, stdErr, raw)
	}
	if err == nil && !cc.equal(got, &want) {
		t.Fatalf("decode and reference disagree on %q\n decode: %+v\n reference: %+v", raw, *got, want)
	}
}

// accepts reports whether the scanner alone takes raw, for tests that pin
// a payload to the fast path.
func (cc chainCase[F, P]) accepts(c *Codec, raw []byte) bool {
	var got P
	return cc.fast(c, raw, &got) == nil
}
