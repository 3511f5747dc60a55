package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"

	"repro/internal/testkit"
)

// canonicalPayload is one payload in the repo's own layout, with the
// scanner of its chain.
type canonicalPayload struct {
	name string
	raw  []byte
	fast func(*Codec, []byte) error
}

var (
	eosFast   = func(c *Codec, raw []byte) error { return c.decodeEOSBlock(raw, new(EOSBlock)) }
	tezosFast = func(c *Codec, raw []byte) error { return c.decodeTezosBlock(raw, new(TezosBlock)) }
	xrpFast   = func(c *Codec, raw []byte) error { return c.decodeXRPLedgerResult(raw, new(XRPLedger)) }
)

// canonicalPayloads returns the committed simulator payloads and the same
// blocks re-rendered by this package's encoders.
func canonicalPayloads(t *testing.T) []canonicalPayload {
	t.Helper()
	read := func(name string) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	eosRaw, tezosRaw, xrpRaw := read("eos_block.json"), read("tezos_block.json"), read("xrp_ledger_result.json")
	c := NewCodec()
	var eos EOSBlockJSON
	if err := json.Unmarshal(eosRaw, &eos); err != nil {
		t.Fatal(err)
	}
	var tezos TezosBlockJSON
	if err := json.Unmarshal(tezosRaw, &tezos); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Ledger XRPLedgerJSON `json:"ledger"`
	}
	if err := json.Unmarshal(xrpRaw, &res); err != nil {
		t.Fatal(err)
	}
	frame, ok := c.AppendXRPLedgerResponse(nil, 1, &res.Ledger, res.Ledger.LedgerIndex)
	if !ok {
		t.Fatal("AppendXRPLedgerResponse refused an int id")
	}
	var env XRPEnvelope
	if err := c.splitXRPEnvelope(frame, &env); err != nil {
		t.Fatal(err)
	}
	return []canonicalPayload{
		{"eos_block.json", eosRaw, eosFast},
		{"tezos_block.json", tezosRaw, tezosFast},
		{"xrp_ledger_result.json", xrpRaw, xrpFast},
		{"AppendEOSBlock", c.AppendEOSBlock(nil, &eos), eosFast},
		{"AppendTezosBlock", c.AppendTezosBlock(nil, &tezos), tezosFast},
		{"AppendXRPLedgerResponse's result", env.Result, xrpFast},
	}
}

// TestPredictedKeysResolveEveryKey: every key of the committed simulator
// payloads, and of the same blocks re-rendered by this package's encoders,
// is one the decoders predicted, so none takes the readString-and-lookup
// path, and every string value takes plainStr's straight path. A key an
// encoder renames or reorders, or a value it starts escaping or spacing,
// fails here instead of quietly costing every block a lookup per member or
// a detour per string.
func TestPredictedKeysResolveEveryKey(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		for _, p := range canonicalPayloads(t) {
			c := NewCodec()
			if err := p.fast(c, p.raw); err != nil {
				t.Fatalf("%s: the scanner refuses it: %v", p.name, err)
			}
			if c.lex.misses != 0 {
				t.Errorf("%s: %d keys were not predicted", p.name, c.lex.misses)
			}
			if c.lex.detours != 0 {
				t.Errorf("%s: %d string values left the straight path", p.name, c.lex.detours)
			}
		}

		// The counts are live: a key spaced from its colon, one out of encoder
		// order and an unknown one each take the lookup, and still decode; a
		// value after a space, an escaped one and a non-ASCII one that is read
		// each take the general path, and a null does not count.
		c := NewCodec()
		var b EOSBlock
		if err := c.decodeEOSBlock([]byte(`{"timestamp" :"t","id":"x","extra":1}`), &b); err != nil || b.Timestamp != "t" {
			t.Fatalf("unpredicted keys: %v, %+v", err, b)
		}
		if c.lex.misses != 3 || c.lex.detours != 0 {
			t.Fatalf("%d misses and %d detours counted, want 3 and 0", c.lex.misses, c.lex.detours)
		}
		c = NewCodec()
		raw := "{\"id\": \"x\",\"previous\":\"\\u0078\",\"timestamp\":\"caf\u00e9\",\"producer\":null}"
		if err := c.decodeEOSBlock([]byte(raw), &b); err != nil || b.Timestamp != "caf\u00e9" {
			t.Fatalf("detoured values: %v, %+v", err, b)
		}
		if c.lex.misses != 0 || c.lex.detours != 3 {
			t.Fatalf("%d misses and %d detours counted, want 0 and 3", c.lex.misses, c.lex.detours)
		}
	})
}

// TestRecordsTakeTheStraightPath: every record of the canonical payloads
// that has a straight path — EOS transaction receipts, XRP transactions;
// Tezos operations have none — is read by it, so an encoder that renames,
// reorders or spaces a member fails here instead of quietly sending every
// record through the keyed path. A payload as a real node renders it, with a
// hex_data member after every action's data, leaves the straight path
// once, at its first record, and still decodes as encoding/json does.
func TestRecordsTakeTheStraightPath(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		for _, p := range canonicalPayloads(t) {
			c := NewCodec()
			if err := p.fast(c, p.raw); err != nil {
				t.Fatalf("%s: the scanner refuses it: %v", p.name, err)
			}
			if c.lex.strays != 0 {
				t.Errorf("%s: %d records left the straight path", p.name, c.lex.strays)
			}
		}

		raw, err := os.ReadFile(filepath.Join("testdata", "eos_block.json"))
		if err != nil {
			t.Fatal(err)
		}
		data := regexp.MustCompile(`"data":\{[^{}]*\}`)
		hexed := data.ReplaceAll(raw, []byte(`$0,"hex_data":"a09867fa2a0f3d55"`))
		actions := len(data.FindAll(raw, -1))
		if actions < 2 || bytes.Count(hexed, []byte(`"hex_data"`)) != actions {
			t.Fatalf("premise: %d actions", actions)
		}
		c := NewCodec()
		var b EOSBlock
		if err := c.decodeEOSBlock(hexed, &b); err != nil {
			t.Fatalf("the scanner refuses hex_data: %v", err)
		}
		if c.lex.strays != 1 {
			t.Errorf("%d records left the straight path, want 1", c.lex.strays)
		}
		if c.lex.misses != actions {
			t.Errorf("%d keys were not predicted, want one per action (%d)", c.lex.misses, actions)
		}
		eosCase.agree(t, c, hexed, &b)
	})
}

// TestPooledCodecsDecodeConcurrently: goroutines share the codec pool, each
// decoding its own stream of blocks whose names are its own, and check
// every projection against ProjectEOSBlock. The names collide in the front
// cache: equal length, head and tail, differing only in the middle. A
// front cache that leaked a string from one codec into another would hand
// a goroutine a name its payloads never held, and under -race a shared one
// is a reported race.
func TestPooledCodecsDecodeConcurrently(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		const goroutines, blocks = 4, 200
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				name := func() string { return fmt.Sprintf("aaaaaaaa%02d%03dzzzzzzzz", g, rng.Intn(50)) }
				enc := NewCodec()
				for range blocks {
					full := EOSBlockJSON{Timestamp: name()}
					for range 1 + rng.Intn(4) {
						var trx EOSTrxJSON
						trx.Trx.Transaction.Actions = []EOSActionJSON{{
							Account: name(), Name: name(),
							Authorization: []map[string]string{{"actor": name()}},
							Data:          map[string]string{"from": name(), "to": name(), "quantity": name()},
						}}
						full.Transactions = append(full.Transactions, trx)
					}
					raw := enc.AppendEOSBlock(nil, &full)
					var want EOSBlock
					ProjectEOSBlock(&full, &want)
					got := GetEOSBlock()
					c := GetCodec()
					err := c.decodeEOSBlock(raw, got)
					PutCodec(c)
					if err != nil || !eosCase.equal(got, &want) {
						t.Errorf("goroutine %d: decode %v\n got:  %+v\n want: %+v", g, err, *got, want)
						PutEOSBlock(got)
						return
					}
					PutEOSBlock(got)
				}
			}()
		}
		wg.Wait()
	})
}
