package wire

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/testkit"
)

// TestNonCanonicalKeyCasingMatchesStdlib: encoding/json matches field
// names case-insensitively as a fallback; the fast scanner must not
// silently zero such fields, but instead route the payload through the
// stdlib fallback and decode it identically.
func TestNonCanonicalKeyCasingMatchesStdlib(t *testing.T) {
	c := NewCodec()

	var tz TezosBlock
	raw := []byte(`{"Level":7,"TimeStamp":"T7","hash":"H","operations":[{"Kind":"endorsement","SOURCE":"tz1x"}]}`)
	tezosCase.agree(t, c, raw, &tz)
	if tz.Timestamp != "T7" {
		t.Fatalf("folded Timestamp lost: got %q", tz.Timestamp)
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
	unknown := []byte(`{"level":5,"timestamp":"T5","chain_id":"main","metadata":{"a":[1,2]}}`)
	if !tezosCase.accepts(c, unknown) {
		t.Fatal("unknown fields must skip on the fast path")
	}
	tezosCase.agree(t, c, unknown, &tz)
	if tz.Timestamp != "T5" {
		t.Fatalf("timestamp lost next to unknown fields: %+v", tz)
	}
}

// strictCases are payloads on the edges of the accept set: every one is
// held to encoding/json's verdict and value by TestStrictCasesMatchStdlib
// and seeds the fuzz targets. A payload is tried against all three chains —
// a key that means nothing to a chain is simply an unknown field there.
var strictCases = append([]string{
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
	// Predicted keys whose `"key":` literal is nine to sixteen bytes long,
	// compared as two words: keys that differ from one only after its
	// eighth byte (a folded one takes the fallback), and keys that end
	// within the payload's last fifteen bytes, where the second word cannot
	// be loaded.
	`{"timestamps":"a","timestamp":"b"}`, `{"timestamP":"a"}`, `{"timestamp" :"a"}`, `{"transactionz":[{}]}`,
	`{"transactions" :[{}]}`, `{"transactions":[{"trx":{"transactioN":{"actions":[{"account":"a"}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"authorizatioN":[{"actor":"a"}]}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"authorization" :[{"actor":"a"}]}]}}}]}`,
	`{"transactions":[{"trx":{"transaction":{"actions":[{"data":{"quantitY":"1 X","quantity":"2 Y"}}]}}}]}`,
	`{"operations":[{"destinatioN":"tz1","destination":"tz2","slot_counT":1}]}`,
	`{"ledger":{"ledger_indeX":3,"ledger_index":4}}`, `{"ledger":{"transactions":[{"Sequencf":1,"Destinatioo":"r"}]}}`,
	`{"ledger":{"transactions":[{"TakerGetS":{"currency":"X","issueR":"r"}}]}}`,
	`{"timestamp":""}`, `{"timestamp":"a"}`, `{"timestamp":1}`, `{"timestamp":}`, `{"timestamX":""}`,
	`{"timestamp":null}`, `{"x":1,"timestamp":""}`, `{"transactions":[{"status":""}]}`,
	`{"transactions":[{"statuS":1}]}`, `{"operations":[{"proposal":""}]}`, `{"ledger":{"validated":true}}`,
	`{"ledger":{"transactions":[{"Account":""}]}}`, `{"ledger":{"transactions":[{"Account":1}]}}`,
	// A negative zero: an int64 field takes it, a uint32 field does not.
	`{"level":-0}`, `{"block_num":-0}`, `{"ledger":{"transactions":[{"Sequence":-0,"DestinationTag":0}]}}`,
	`{"ledger":{"transactions":[{"DestinationTag":-0}]}}`, `{"ledger":{"transactions":[{"resting_sequence":-0}]}}`,
	// Shapes around the edges of the grammar.
	``, ` `, `null`, `{}`, ` { } `, `{} x`, "{}\x00", "{} \x00x", "{\x00}", `{"timestamp":"a"}{"timestamp":"b"}`, `[]`, `{"timestamp"}`, `{"timestamp":}`,
	`{"timestamp":"a",}`, `{,}`, `{"transactions":[}`, `{"transactions":[{},]}`, `{"transactions":[,{}]}`,
	`{"transactions":{}}`, `{"operations":[null]}`, `{"operations":[7]}`, `{"ledger":[]}`, `{"ledger":7}`,
	`{"x":nul}`, `{"x":nulll}`, `{"x":tru}`, `{"x":"\q"}`, `{"x":"\u12"}`, `{"x":"\u12g4"}`, `{"x":"a` + "\x01" + `b"}`,
	`{"x":"unterminated`, `{"x":"ends in a backslash\`, `{"\ud800":1,"\u0000":2,"":3}`, `{"timestamp":"\ud83d\ude00 \"q\" \\ \/ \b\f\n\r\t"}`,
	`{"x":` + strings.Repeat("[", 300) + strings.Repeat("]", 300) + `}`,
}, straightEdges()...)

// straightEdges are the places a record's straight path stops, for each of
// the three record shapes: a canonical record, with every optional member
// present, followed by the same record with one edit, so the edited one
// leaves the straight path after a record that took it. Then the canonical
// record followed by a copy cut off within each of its member literals.
func straightEdges() []string {
	var cases []string
	for _, shape := range []struct {
		head, record, tail string
		edits              [][2]string
	}{
		{`{"transactions":[`, `{"status":"executed","trx":{"id":"ab","transaction":{"actions":[` +
			`{"account":"eosio.token","name":"transfer","authorization":[{"actor":"alice","permission":"active"}],` +
			`"data":{"buyer":"b","from":"alice","memo":"m","quantity":"1.0000 EOS","seller":"s","to":"bob"},"inline":true},` +
			`{"account":"eosio.token","name":"retire","authorization":[{"actor":"bob","permission":"active"}],"data":{}}]}}}`, `]}`,
			[][2]string{
				{`"name":"transfer"`, `"name": "transfer"`}, {`"actor":"alice"`, `"actor": "alice"`},
				{`"status":"executed"`, `"status":null`}, {`"actor":"alice"`, `"actor":null`},
				{`"to":"bob"`, `"to":null`}, {`"data":{}`, `"data":null`}, {`"actions":[{`, `"actions":null,"x":[{`},
				{`"account":"eosio.token"`, `"account":"eosio\u002etoken"`}, {`"from":"alice"`, `"from":"al\u0069ce"`},
				{`"account":"eosio.token"`, "\"account\":\"eosio.t\xc3\xb6ken\""}, {`"quantity":"1.0000 EOS"`, "\"quantity\":\"1 \xe2\x82\xac\""},
				{`"memo":"m"`, "\"memo\":\"\xff\""}, {`"id":"ab"`, `"id":"a\u0062"`},
				{`"name":"transfer"`, `"Name":"transfer"`}, {`"status"`, `"Status"`}, {`"quantity"`, `"Quantity"`},
				{`"name":"transfer"`, `"name":"transfer","name":"x"`}, {`"to":"bob"`, `"to":"bob","to":"carol"`},
				{`"account":"eosio.token","name":"transfer"`, `"name":"transfer","account":"eosio.token"`},
				{`"from":"alice","memo":"m"`, `"memo":"m","from":"alice"`},
				{`"actor":"alice","permission":"active"`, `"permission":"active","actor":"alice"`},
				{`"data":{"buyer"`, `"hex":"00","data":{"buyer"`}, {`"to":"bob"}`, `"to":"bob"},"hex_data":"00"`},
				{`"to":"bob"`, `"to":"bob","zz":"x"`}, {`"actor":"alice"`, `"actor":"alice","x":"y"`},
				{`"inline":true`, `"inline":false`}, {`"inline":true`, `"inline":null`},
				{`[{"actor":"alice","permission":"active"}]`, `[]`},
				{`[{"actor":"alice","permission":"active"}]`, `[{"actor":"alice","permission":"active"},{"actor":"bob","permission":"owner"}]`},
				{`"authorization":[{"actor":"bob","permission":"active"}]`, `"authorization":[{"actor":"bob"}]`},
				{`"actions":[{"account"`, `"actions":[],"z":[{"account"`},
			}},
		{`{"ledger":{"transactions":[`, `{"hash":"ab","TransactionType":"Payment","Account":"rA","Destination":"rB",` +
			`"DestinationTag":7,"Fee":10,"Sequence":42,"Amount":{"currency":"USD","issuer":"rI","value":5},` +
			`"TakerGets":{"currency":"XRP","value":1},"TakerPays":{"currency":"XRP","value":2},` +
			`"LimitAmount":{"currency":"XRP","value":3},"delivered_amount":{"currency":"USD","issuer":"rI","value":5},` +
			`"OfferSequence":3,"meta_TransactionResult":"tesSUCCESS","executed":true,"resting_sequence":9}`, `]}}`,
			[][2]string{
				{`"Account":"rA"`, `"Account": "rA"`}, {`"Fee":10`, `"Fee": 10`}, {`"value":5}`, `"value":5 }`},
				{`"Account":"rA"`, `"Account":null`}, {`"hash":"ab"`, `"hash":null`}, {`"Amount":{"currency":"USD","issuer":"rI","value":5}`, `"Amount":null`},
				{`"LimitAmount":{"currency":"XRP","value":3}`, `"LimitAmount":null`}, {`"currency":"XRP","value":1`, `"currency":null,"value":1`},
				{`"Sequence":42`, `"Sequence":null`},
				{`"Account":"rA"`, `"Account":"r\u0041"`}, {`"Account":"rA"`, "\"Account\":\"r\xc3\x85\""},
				{`"meta_TransactionResult":"tesSUCCESS"`, "\"meta_TransactionResult\":\"tes\xffSUCCESS\""},
				{`"Account":`, `"account":`}, {`"meta_TransactionResult"`, `"meta_transactionResult"`}, {`"issuer":"rI"`, `"Issuer":"rI"`},
				{`"Sequence":42`, `"Sequence":42,"Sequence":43`}, {`"Amount":{"currency":"USD"`, `"Amount":{"currency":"EUR","currency":"USD"`},
				{`"Fee":10,"Sequence":42`, `"Sequence":42,"Fee":10`}, {`"currency":"USD","issuer":"rI"`, `"issuer":"rI","currency":"USD"`},
				{`"TakerGets":{"currency":"XRP","value":1},"TakerPays":{"currency":"XRP","value":2}`, `"TakerPays":{"currency":"XRP","value":2},"TakerGets":{"currency":"XRP","value":1}`},
				{`,"meta_TransactionResult"`, `,"Flags":2147483648,"meta_TransactionResult"`}, {`"value":3}`, `"value":3,"x":1}`},
				{`"executed":true`, `"executed":false`},
				{`"Fee":10`, `"Fee":010`}, {`"value":2}`, `"value":02}`}, {`"Sequence":42`, `"Sequence":42.0`}, {`"value":1}`, `"value":1.5}`},
				{`"Fee":10`, `"Fee":1e1`}, {`"Sequence":42`, `"Sequence":-0`}, {`"DestinationTag":7`, `"DestinationTag":-0`},
				{`"value":5}`, `"value":-0}`}, {`"Fee":10`, `"Fee":-0`}, {`"resting_sequence":9`, `"resting_sequence":-0`},
				{`"Sequence":42`, `"Sequence":4294967296`}, {`"DestinationTag":7`, `"DestinationTag":07`},
			}},
		{`{"operations":[`, `{"kind":"transaction","source":"tz1a","destination":"tz1b","amount":5,"fee":1420,"level":7,` +
			`"slot_count":2,"proposal":"P","ballot":"yay","rolls":3,"delegate":"tz1d"}`, `]}`,
			[][2]string{
				{`"kind":"transaction"`, `"kind": "transaction"`}, {`"rolls":3`, `"rolls": 3`},
				{`"source":"tz1a"`, `"source":null`}, {`"delegate":"tz1d"`, `"delegate":null`},
				{`"kind":"transaction"`, `"kind":"tr\u0061nsaction"`}, {`"source":"tz1a"`, "\"source\":\"tz\xc3\xa9\""},
				{`"ballot":"yay"`, "\"ballot\":\"y\xe4y\""}, {`"delegate":"tz1d"`, `"delegate":"tz\u0031d"`},
				{`"source":`, `"Source":`}, {`"slot_count"`, `"Slot_count"`}, {`"rolls":3`, `"rolls":3,"rolls":4`},
				{`"amount":5,"fee":1420`, `"fee":1420,"amount":5`}, {`"delegate":"tz1d"}`, `"delegate":"tz1d","counter":"1"}`},
				{`"kind":"transaction",`, `"kind":"transaction","storage_limit":"0",`},
				{`"rolls":3`, `"rolls":03`}, {`"amount":5`, `"amount":05`}, {`"fee":1420`, `"fee":1420.0`},
				{`"rolls":3`, `"rolls":3.5`}, {`"level":7`, `"level":7e0`}, {`"rolls":3`, `"rolls":-0`},
				{`"slot_count":2`, `"slot_count":-0`}, {`"amount":5`, `"amount":-0`},
			}},
	} {
		for _, e := range shape.edits {
			if !strings.Contains(shape.record, e[0]) {
				panic("straightEdges: no " + e[0] + " in " + shape.record)
			}
			cases = append(cases, shape.head+shape.record+","+strings.Replace(shape.record, e[0], e[1], 1)+shape.tail)
		}
		for at := 0; at < len(shape.record); at++ {
			if strings.HasPrefix(shape.record[at:], `":`) {
				cases = append(cases, shape.head+shape.record+","+shape.record[:at-1])
			}
		}
	}
	return cases
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
	testkit.Repeat(t, 20, func(t *testing.T) {
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
	})
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
	if testkit.Race {
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
// equal to and longer than its step, on every chain, read and stepped over,
// with the opening quote at the value's first byte (plainStr's straight
// path) and after a space (the general path).
func TestStringScanMatchesStdlibAtEveryOffset(t *testing.T) {
	c := NewCodec()
	var eb EOSBlock
	var tz TezosBlock
	var led XRPLedger
	for n := 0; n <= 20; n++ {
		scanEdges(n, func(eos, tezos, xrp []byte) {
			eosCase.agreeValid(t, c, eos, &eb)
			tezosCase.agreeValid(t, c, tezos, &tz)
			xrpCase.agreeValid(t, c, xrp, &led)
		})
	}
}

// scanEdges calls edge with each byte the eight-wide scan has to tell
// apart at every position of a string of n other bytes, set in one payload
// per chain, both where the chain reads a string and where it steps over
// one: Tezos' timestamp and hash, an EOS action's data.from (read by
// decodeMapValue) and data.memo, an XRP transaction's Account and hash.
// Each string comes once with its opening quote right after the colon and
// once after a space.
func scanEdges(n int, edge func(eos, tezos, xrp []byte)) {
	probes := []string{
		`\"`, `\\`, `"`, "\x00", "\x1f", "\x20", "\x21", "\x23", "\x5b", "\x5d", "\x7f",
		"\x80", "\xa2", "\xdc", "\x9f", "\xff", "\xc3\xa9", `\u0041`, `\`,
	}
	for _, probe := range probes {
		for at := 0; at <= n; at++ {
			body := strings.Repeat("a", at) + probe + strings.Repeat("b", n-at)
			for _, pad := range []string{"", " "} {
				q := pad + `"` + body + `"`
				edge([]byte(`{"transactions":[{"trx":{"transaction":{"actions":[{"data":{"from":`+q+`,"memo":`+q+`}}]}}}]}`),
					[]byte(`{"timestamp":`+q+`,"hash":`+q+`}`),
					[]byte(`{"ledger":{"transactions":[{"Account":`+q+`,"hash":`+q+`}]}}`))
			}
		}
	}
}

// agreeValid is agree on a payload the scanner has no reason to refuse:
// encoding/json takes it or rejects it, and the scanner alone does the
// same.
func (cc chainCase[F, P]) agreeValid(t *testing.T, c *Codec, raw []byte, got *P) {
	t.Helper()
	cc.agree(t, c, raw, got)
	if valid := json.Valid(raw); cc.accepts(c, raw) != valid {
		t.Fatalf("scanner accepts=%v, json.Valid=%v: %q", !valid, valid, raw)
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
