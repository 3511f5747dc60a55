package wire

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestPredictedKeysResolveEveryKey: every key of the committed simulator
// payloads, and of the same blocks re-rendered by this package's encoders,
// is one the decoders predicted, so none takes the readString-and-lookup
// path, and every string value takes plainStr's straight path. A key an
// encoder renames or reorders, or a value it starts escaping or spacing,
// fails here instead of quietly costing every block a lookup per member or
// a detour per string.
func TestPredictedKeysResolveEveryKey(t *testing.T) {
	read := func(name string) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	check := func(what string, raw []byte, fast func(*Codec, []byte) error) {
		t.Helper()
		c := NewCodec()
		if err := fast(c, raw); err != nil {
			t.Fatalf("%s: the scanner refuses it: %v", what, err)
		}
		if c.lex.misses != 0 {
			t.Errorf("%s: %d keys were not predicted", what, c.lex.misses)
		}
		if c.lex.detours != 0 {
			t.Errorf("%s: %d string values left the straight path", what, c.lex.detours)
		}
	}
	eosFast := func(c *Codec, raw []byte) error { return c.decodeEOSBlock(raw, new(EOSBlock)) }
	tezosFast := func(c *Codec, raw []byte) error { return c.decodeTezosBlock(raw, new(TezosBlock)) }
	xrpFast := func(c *Codec, raw []byte) error { return c.decodeXRPLedgerResult(raw, new(XRPLedger)) }

	eosRaw, tezosRaw, xrpRaw := read("eos_block.json"), read("tezos_block.json"), read("xrp_ledger_result.json")
	check("eos_block.json", eosRaw, eosFast)
	check("tezos_block.json", tezosRaw, tezosFast)
	check("xrp_ledger_result.json", xrpRaw, xrpFast)

	c := NewCodec()
	var eos EOSBlockJSON
	if err := json.Unmarshal(eosRaw, &eos); err != nil {
		t.Fatal(err)
	}
	check("AppendEOSBlock", c.AppendEOSBlock(nil, &eos), eosFast)
	var tezos TezosBlockJSON
	if err := json.Unmarshal(tezosRaw, &tezos); err != nil {
		t.Fatal(err)
	}
	check("AppendTezosBlock", c.AppendTezosBlock(nil, &tezos), tezosFast)
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
	check("AppendXRPLedgerResponse's result", env.Result, xrpFast)

	// The counts are live: a key spaced from its colon, one out of encoder
	// order and an unknown one each take the lookup, and still decode; a
	// value after a space, an escaped one and a non-ASCII one that is read
	// each take the general path, and a null does not count.
	c = NewCodec()
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
}

// TestPooledCodecsDecodeConcurrently: goroutines share the codec pool, each
// decoding its own stream of blocks whose names are its own, and check
// every projection against ProjectEOSBlock. The names collide in the front
// cache: equal length, head and tail, differing only in the middle. A
// front cache that leaked a string from one codec into another would hand
// a goroutine a name its payloads never held, and under -race a shared one
// is a reported race.
func TestPooledCodecsDecodeConcurrently(t *testing.T) {
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
}
