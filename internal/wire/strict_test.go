package wire

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestNonCanonicalKeyCasingMatchesStdlib: encoding/json matches field
// names case-insensitively as a fallback; the fast scanner must not
// silently zero such fields, but instead route the payload through the
// stdlib fallback and decode it identically.
func TestNonCanonicalKeyCasingMatchesStdlib(t *testing.T) {
	c := NewCodec()

	var tz TezosBlock
	raw := []byte(`{"Level":7,"hash":"H","operations":[{"Kind":"endorsement","SOURCE":"tz1x"}]}`)
	tezosCase.agree(t, c, raw, &tz)
	if tz.Level != 7 {
		t.Fatalf("folded Level lost: got %d", tz.Level)
	}
	if len(tz.Operations) != 1 || tz.Operations[0].Source != "tz1x" {
		t.Fatalf("folded operation fields lost: %+v", tz.Operations)
	}

	var eb EOSBlock
	eraw := []byte(`{"Block_Num":9,"Timestamp":"then"}`)
	eosCase.agree(t, c, eraw, &eb)
	if eb.Timestamp != "then" {
		t.Fatalf("folded EOS fields lost: %+v", eb)
	}

	var led XRPLedger
	xraw := []byte(`{"LEDGER":{"Ledger_Index":3,"transactions":[{"ACCOUNT":"rA","FEE":10}]}}`)
	xrpCase.agree(t, c, xraw, &led)
	if len(led.Transactions) != 1 || led.Transactions[0].Account != "rA" {
		t.Fatalf("folded XRP fields lost: %+v", led)
	}

	// A field nobody reads still folds: its value must be held to the
	// field's type, which only the fallback can do for a folded key.
	tezosCase.agree(t, c, []byte(`{"HASH":5}`), &tz)
	// encoding/json folds by Unicode simple folding: U+017F is an s and
	// U+212A a k, so these two keys name read fields.
	for _, raw := range []string{
		"{\"operations\":[{\"\u212aind\":\"ballot\",\"\u017fource\":\"tz1y\"}]}", // as UTF-8
		`{"operations":[{"\u212aind":"ballot","\u017fource":"tz1y"}]}`,           // as JSON escapes
	} {
		tezosCase.agree(t, c, []byte(raw), &tz)
		if len(tz.Operations) != 1 || tz.Operations[0].Kind != "ballot" || tz.Operations[0].Source != "tz1y" {
			t.Fatalf("Unicode-folded operation fields lost: %+v", tz.Operations)
		}
	}

	// Genuinely unknown keys still skip without tripping the fold check.
	unknown := []byte(`{"level":5,"chain_id":"main","metadata":{"a":[1,2]}}`)
	if !tezosCase.accepts(c, unknown) {
		t.Fatal("unknown fields must skip on the fast path")
	}
	tezosCase.agree(t, c, unknown, &tz)
	if tz.Level != 5 {
		t.Fatalf("level lost next to unknown fields: %+v", tz)
	}
}

// strictCases are payloads on the edges of the accept set: every one is
// held to encoding/json's verdict and value by TestStrictCasesMatchStdlib
// and seeds the fuzz targets. A payload is tried against all three chains —
// a key that means nothing to a chain is simply an unknown field there.
var strictCases = []string{
	// Unread values are still held to their field's type.
	`{"id":5}`, `{"id":null,"previous":"p","producer":{}}`, `{"block_num":-1}`, `{"block_num":4294967296}`,
	`{"block_num":1.0}`, `{"block_num":"1"}`, `{"transactions":[{"status":7}]}`,
	`{"transactions":[{"trx":{"id":[]}}]}`, `{"hash":1}`, `{"baker":false}`,
	`{"operations":[{"kind":"x","amount":"1"}]}`, `{"operations":[{"fee":1e3}]}`,
	`{"operations":[{"slot_count":9223372036854775807,"level":-9223372036854775808}]}`,
	`{"operations":[{"delegate":0}]}`, `{"operations":[{"amount":9223372036854775808}]}`,
	`{"ledger":{"ledger_hash":3}}`, `{"ledger":{"transaction_count":1.5}}`,
	`{"ledger":{"transactions":[{"hash":{}}]}}`, `{"ledger":{"transactions":[{"Fee":"10"}]}}`,
	`{"ledger":{"transactions":[{"OfferSequence":-3}]}}`,
	`{"ledger":{"transactions":[{"TakerGets":{"currency":1}}]}}`,
	`{"ledger":{"transactions":[{"TakerPays":{"value":"1"}}]}}`,
	`{"ledger":{"transactions":[{"LimitAmount":[]}]}}`,
	`{"ledger":{"transactions":[{"LimitAmount":{"currency":"USD","issuer":"r","value":3,"x":[{}]}}]}}`,
	`{"ledger":{"transactions":[{"executed":1}]}}`, `{"ledger":{"transactions":[{"executed":null}]}}`,
	// data and authorization hold strings and nulls only; their keys match
	// exactly, never folded.
	`{"transactions":[{"trx":{"transaction":{"actions":[{"data":{"from":"a","memo":3}}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"data":{"from":"a","FROM":"b","to":null,"quantity":"1 X","quantity":"2 Y"}}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"data":{"fr\u006fm":"a","to":"\u0062"}}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"authorization":[{"actor":"a"},{"actor":"b"}]}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"authorization":[{"actor":null,"permission":"p"}]}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"authorization":[{"permission":7}]}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"authorization":[null]}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"authorization":[],"data":{}}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"inline":"yes"}]}}}]}`,
	// A repeated scalar key: the last one wins, a null is a no-op.
	`{"timestamp":"a","timestamp":"b"}`, `{"timestamp":"a","timestamp":null}`, `{"level":1,"level":2,"level":null}`,
	`{"ledger":{"transactions":[{"Sequence":1,"Sequence":2,"Account":"a","Account":null}]}}`,
	// A repeated composite key: encoding/json merges the second value into
	// the first and lets a null reset it.
	`{"transactions":[{"trx":{"transaction":{"actions":[{"account":"a"}]}}}],"transactions":[{}]}`,
	`{"transactions":[{}],"transactions":null}`, `{"transactions":null,"transactions":[{}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"account":"a","name":"n"}]}},"trx":{"transaction":{"actions":[{"name":"m"}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"name":"n"}]},"transaction":null}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"name":"n"}],"actions":[]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"authorization":[{"actor":"a"}],"authorization":[{"permission":"p"}]}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"authorization":[{"actor":"a"}],"authorization":null}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"data":{"from":"a"},"data":{"to":"b"}}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"data":{"from":"a"},"data":null}]}}}]}`,
	`{"operations":[{"kind":"a"},{"kind":"b"}],"operations":[{"source":"s"}]}`,
	`{"ledger":{"close_time_human":"t"},"ledger":{"transactions":[{}]}}`, `{"ledger":{"close_time_human":"t"},"ledger":null}`,
	`{"ledger":null,"ledger":{"close_time_human":"t"}}`,
	`{"ledger":{"transactions":[{"Amount":{"currency":"USD","value":1},"Amount":{"issuer":"r"}}]}}`,
	`{"ledger":{"transactions":[{"Amount":{"currency":"USD"},"Amount":null}]}}`,
	`{"ledger":{"transactions":[{"delivered_amount":null}]}}`, `{"ledger":{"transactions":[{"delivered_amount":{}}]}}`,
	`{"ledger":{"transactions":[{"delivered_amount":{"value":2,"value":null,"currency":"X","currency":"Y"}}]}}`,
	// Shapes around the edges of the grammar.
	``, ` `, `null`, `{}`, ` { } `, `{} x`, "{}\x00", "{} \x00x", "{\x00}", `{"timestamp":"a"}{"timestamp":"b"}`, `[]`, `{"timestamp"}`, `{"timestamp":}`,
	`{"timestamp":"a",}`, `{,}`, `{"transactions":[}`, `{"transactions":[{},]}`, `{"transactions":[,{}]}`,
	`{"transactions":{}}`, `{"operations":[null]}`, `{"operations":[7]}`, `{"ledger":[]}`, `{"ledger":7}`,
	`{"x":nul}`, `{"x":nulll}`, `{"x":tru}`, `{"x":"\q"}`, `{"x":"\u12"}`, `{"x":"\u12g4"}`, `{"x":"a` + "\x01" + `b"}`,
	`{"x":"unterminated`, `{"x":"ends in a backslash\`, `{"\ud800":1,"\u0000":2,"":3}`, `{"timestamp":"\ud83d\ude00 \"q\" \\ \/ \b\f\n\r\t"}`,
	`{"x":` + strings.Repeat("[", 300) + strings.Repeat("]", 300) + `}`,
}

// TestSplitXRPEnvelope: a canonical frame splits on the fast path into a
// span of the frame itself; a frame the fast path refuses still splits, by
// encoding/json, to the same value.
func TestSplitXRPEnvelope(t *testing.T) {
	c := NewCodec()
	result := `{"ledger":{"ledger_index":3},"validated":true}`
	frame := []byte(`{"id":41,"status":"success","type":"response","result": ` + result + ` }`)
	var env XRPEnvelope
	if err := c.splitXRPEnvelope(frame, &env); err != nil {
		t.Fatalf("the fast split refuses a canonical frame: %v", err)
	}
	if env.ID != 41 || env.Status != "success" || env.Error != "" || string(env.Result) != result {
		t.Fatalf("split: %+v", env)
	}
	if at := bytes.Index(frame, []byte(result)); &env.Result[0] != &frame[at] {
		t.Fatal("the fast split copied the result instead of handing out its span")
	}

	folded := []byte(`{"ID":41,"Status":"error","ERROR":"lgrNotFound","Result":` + result + `}`)
	if envelopeCase.accepts(c, folded) {
		t.Fatal("folded keys must leave the fast path")
	}
	if err := c.SplitXRPEnvelope(folded, &env); err != nil {
		t.Fatal(err)
	}
	if env.ID != 41 || env.Status != "error" || env.Error != "lgrNotFound" || string(env.Result) != result {
		t.Fatalf("fallback split: %+v", env)
	}
	envelopeCase.agree(t, c, folded, &env)

	// A reply to nobody: the id stays zero, which no request carries.
	if err := c.SplitXRPEnvelope([]byte(`{"status":"success","result":{}}`), &env); err != nil || env.ID != 0 {
		t.Fatalf("id-less reply: %+v, %v", env, err)
	}
	// An id that is not an integer is nobody's either, and refused.
	for _, bad := range []string{`{"id":"41","status":"success"}`, `{"id":41.5,"status":"success"}`} {
		if err := c.SplitXRPEnvelope([]byte(bad), &env); err == nil {
			t.Errorf("%s accepted as %+v", bad, env)
		}
	}
}

// TestStrictCasesMatchStdlib holds every strict case to the reference, on
// each chain and on the XRP response envelope, through one codec and one
// reused struct apiece.
func TestStrictCasesMatchStdlib(t *testing.T) {
	c := NewCodec()
	var eb EOSBlock
	var tz TezosBlock
	var led XRPLedger
	var env XRPEnvelope
	for _, raw := range strictCases {
		eosCase.agree(t, c, []byte(raw), &eb)
		tezosCase.agree(t, c, []byte(raw), &tz)
		xrpCase.agree(t, c, []byte(raw), &led)
		envelopeCase.agree(t, c, []byte(raw), &env)
	}
}

// TestStrictNumbersMatchStdlib: malformed numbers that encoding/json
// rejects must fail the wire decode too — corruption in an archived
// payload has to surface, not quietly parse.
func TestStrictNumbersMatchStdlib(t *testing.T) {
	c := NewCodec()
	cases := []string{
		`{"level":007}`,            // leading zeros in a decoded field
		`{"level":-}`,              // lone minus
		`{"unknownfield":00}`,      // leading zeros in a skipped field
		`{"unknownfield":1.}`,      // no digits after decimal point
		`{"unknownfield":1e}`,      // no digits in exponent
		`{"unknownfield":1.2e++3}`, // garbage exponent
		`{"unknownfield":-}`,       // lone minus in a skipped field
	}
	for _, raw := range cases {
		var viaStd TezosBlockJSON
		if err := json.Unmarshal([]byte(raw), &viaStd); err == nil {
			t.Fatalf("test premise broken: stdlib accepts %s", raw)
		}
		var tz TezosBlock
		if err := c.DecodeTezosBlock([]byte(raw), &tz); err == nil {
			t.Errorf("wire decode accepted %s, stdlib rejects it", raw)
		}
	}

	// Valid numbers stdlib accepts must keep decoding, including in
	// skipped fields.
	ok := []string{
		`{"level":0}`,
		`{"level":-0}`,
		`{"unknownfield":0.5}`,
		`{"unknownfield":-1.25e-3}`,
		`{"unknownfield":1E+2}`,
	}
	for _, raw := range ok {
		if !tezosCase.accepts(c, []byte(raw)) {
			t.Errorf("the scanner rejected valid %s", raw)
		}
		tezosCase.agree(t, c, []byte(raw), new(TezosBlock))
	}
}

// TestFoldedKeysStayOffHotPath: canonical payloads with skipped envelope
// fields must not pay for the fold check — the envelope decode stays
// allocation-free (the fold comparison itself allocates nothing).
func TestFoldedKeysStayOffHotPath(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	c := NewCodec()
	raw := []byte(`{"ledger":{"ledger_index":1,"close_time_human":"t"},"ledger_index":1,"validated":true}`)
	led := GetXRPLedger()
	defer PutXRPLedger(led)
	if err := c.DecodeXRPLedgerResult(raw, led); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.DecodeXRPLedgerResult(raw, led); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("envelope decode with skipped fields: %.1f allocs/op, want 0", allocs)
	}
}

// TestSurrogateEscapesMatchStdlib pins the unpaired-surrogate re-scan
// behavior: after a failed pair, encoding/json emits one replacement char
// and processes the second escape on its own — so must the lexer.
func TestSurrogateEscapesMatchStdlib(t *testing.T) {
	c := NewCodec()
	cases := []string{
		`"\ud800\ud800\udc00"`, // failed pair, then a valid escaped pair
		`"\ud800\u0041"`,       // high surrogate then plain escape
		`"\udc00\ud800\udc00"`, // lone low surrogate then a valid pair
		`"\ud800"`,             // lone high surrogate at end
		`"\ud800x"`,            // high surrogate then literal byte
		`"\ud800\udc00"`,       // plain valid escaped pair
		`"\udc00\udc00"`,       // two lone low surrogates
	}
	for _, esc := range cases {
		// kind is read, hash is stepped over: both see the same escapes.
		raw := []byte(`{"hash":` + esc + `,"operations":[{"kind":` + esc + `}]}`)
		var want string
		if err := json.Unmarshal([]byte(esc), &want); err != nil {
			t.Fatalf("premise: stdlib rejects %s: %v", esc, err)
		}
		if !tezosCase.accepts(c, raw) {
			t.Fatalf("the scanner refuses %s", esc)
		}
		var tz TezosBlock
		tezosCase.agree(t, c, raw, &tz)
		if tz.Operations[0].Kind != want {
			t.Errorf("%s: wire %q != stdlib %q", esc, tz.Operations[0].Kind, want)
		}
	}
}

// TestInvalidUTF8MatchesStdlib: encoding/json replaces every byte of a
// string that is not valid UTF-8 with U+FFFD, so a string the projection
// keeps — it becomes a map key, a shard blob entry, a figure row — must
// come out the same, while a string it steps over is accepted as it is.
func TestInvalidUTF8MatchesStdlib(t *testing.T) {
	c := NewCodec()
	cases := []string{
		"a\xffb",                           // a byte that never appears in UTF-8
		"\xff",                             // alone
		"caf\xc3",                          // a sequence cut short by the closing quote
		"\xe2\x82",                         // two thirds of a euro sign
		"\xc0\xaf",                         // an overlong slash
		"\xed\xa0\x80",                     // a UTF-8-encoded surrogate
		"\xf4\x90\x80\x80",                 // beyond U+10FFFF
		"ok \xe2\x82\xac \xf0\x9f\x98\x80", // valid multi-byte text stays as it is
		`\n` + "\xff",                      // an escape sends it down the unescaping path
		"\xff" + `\u00e9\ud800`,            // with escapes that are themselves coerced
		"0123456\xff89abcdef",              // on either side of an eight-byte step
		"01234567\xff9abcdef",
		"0123456789abcde\xff",
	}
	for _, s := range cases {
		quoted := `"` + s + `"`
		var want string
		if err := json.Unmarshal([]byte(quoted), &want); err != nil {
			t.Fatalf("premise: stdlib rejects %q: %v", s, err)
		}
		if !utf8.ValidString(want) {
			t.Fatalf("premise: stdlib left %q invalid", want)
		}

		var eb EOSBlock
		raw := []byte(`{"id":` + quoted + `,"timestamp":` + quoted + `,"transactions":[{"trx":{"transaction":{"actions":[` +
			`{"account":` + quoted + `,"authorization":[{"actor":` + quoted + `}],"data":{"from":` + quoted + `,"memo":` + quoted + `}}]}}}]}`)
		if !eosCase.accepts(c, raw) {
			t.Fatalf("the scanner refuses %q", s)
		}
		eosCase.agree(t, c, raw, &eb)
		act := eb.Transactions[0].Actions[0]
		for _, got := range []string{eb.Timestamp, act.Account, act.Actor, act.From} {
			if got != want {
				t.Errorf("%q: wire %q != stdlib %q", s, got, want)
			}
		}

		tezosCase.agree(t, c, []byte(`{"hash":`+quoted+`,"operations":[{"kind":`+quoted+`,"delegate":`+quoted+`}]}`), new(TezosBlock))
		xrpCase.agree(t, c, []byte(`{"ledger":{"ledger_hash":`+quoted+`,"transactions":[{"hash":`+quoted+`,"Account":`+quoted+
			`,"Amount":{"currency":`+quoted+`},"TakerGets":{"issuer":`+quoted+`}}]}}`), new(XRPLedger))
	}
}

// TestStringScanMatchesStdlibAtEveryOffset walks each byte the eight-wide
// scan has to tell apart through every position of strings shorter than,
// equal to and longer than its step, read and stepped over.
func TestStringScanMatchesStdlibAtEveryOffset(t *testing.T) {
	c := NewCodec()
	var tz TezosBlock
	probes := []string{
		`\"`, `\\`, `"`, "\x00", "\x1f", "\x20", "\x21", "\x23", "\x5b", "\x5d", "\x7f",
		"\x80", "\xa2", "\xdc", "\x9f", "\xff", "\xc3\xa9", `\u0041`, `\`,
	}
	for _, probe := range probes {
		for n := 0; n <= 20; n++ {
			for at := 0; at <= n; at++ {
				body := strings.Repeat("a", at) + probe + strings.Repeat("b", n-at)
				raw := []byte(`{"timestamp":"` + body + `","hash":"` + body + `"}`)
				tezosCase.agree(t, c, raw, &tz)
				// encoding/json takes every one of these or none; the
				// scanner has no reason to send any of them to it.
				if json.Valid(raw) != tezosCase.accepts(c, raw) {
					t.Fatalf("scanner accepts=%v, json.Valid=%v: %q", !json.Valid(raw), json.Valid(raw), raw)
				}
			}
		}
	}
}

// TestFoldEq pins the ASCII fold used for key matching.
func TestFoldEq(t *testing.T) {
	if !foldEq([]byte("Block_Num"), "block_num") || !foldEq([]byte("ID"), "id") {
		t.Fatal("foldEq must match ASCII case-insensitively")
	}
	if foldEq([]byte("block-num"), "block_num") || foldEq([]byte("blocknum"), "block_num") {
		t.Fatal("foldEq must not match different names")
	}
	if foldEq([]byte(strings.Repeat("a", 3)), "aaaa") {
		t.Fatal("foldEq must respect length")
	}
}
