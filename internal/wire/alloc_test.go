package wire

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/testkit"
)

// The acceptance bar for the hot path: once a codec's intern table has seen
// a block's strings and the arena struct has grown its slices, decoding
// further blocks of the same shape allocates nothing. These tests are the
// regression gate for that property — any allocation creeping back into
// the steady-state decode or encode path fails them deterministically.

func eosFixture() []byte {
	b := EOSBlockJSON{
		BlockNum: 12345, ID: "00003039abcdef", Previous: "00003038abcdef",
		Timestamp: "2019-10-01T00:00:00.500", Producer: "eosproducer1",
	}
	for i := 0; i < 8; i++ {
		var tx EOSTrxJSON
		tx.Status = "executed"
		tx.Trx.ID = fmt.Sprintf("trx%08d", i)
		tx.Trx.Transaction.Actions = []EOSActionJSON{{
			Account: "eosio.token", Name: "transfer",
			Authorization: []map[string]string{{"actor": "alicealice12", "permission": "active"}},
			Data: map[string]string{
				"from": "alicealice12", "to": "bobbobbob123",
				"quantity": "1.0000 EOS", "memo": "hot path",
			},
		}}
		b.Transactions = append(b.Transactions, tx)
	}
	raw, err := json.Marshal(&b)
	if err != nil {
		panic(err)
	}
	return raw
}

func tezosFixture() []byte {
	b := TezosBlockJSON{
		Level: 654321, Hash: "BLockHash11", Predecessor: "BLockHash10",
		Timestamp: "2019-10-01T00:00:00Z", Baker: "tz1baker",
	}
	for i := 0; i < 16; i++ {
		b.Operations = append(b.Operations, TezosOperationJSON{
			Kind: "endorsement", Source: "tz1endorser", Level: 654320, SlotCount: 2,
		}, TezosOperationJSON{
			Kind: "transaction", Source: "tz1alice", Destination: "tz1bob",
			Amount: 100000, Fee: 1420,
		})
	}
	raw, err := json.Marshal(&b)
	if err != nil {
		panic(err)
	}
	return raw
}

func xrpFixture(envelope bool) []byte {
	l := XRPLedgerJSON{
		LedgerIndex: 50000000, LedgerHash: "LEDGERHASH1", ParentHash: "LEDGERHASH0",
		CloseTime: "2019-10-01T00:00:00Z", TxCount: 8,
	}
	for i := 0; i < 8; i++ {
		l.Transactions = append(l.Transactions, XRPTxJSON{
			Hash: "TXHASH", TransactionType: "Payment", Account: "rAlice",
			Destination: "rBob", DestinationTag: 7, Fee: 10, Sequence: uint32(42),
			Amount: &XRPAmountJSON{Currency: "XRP", Value: 1000000},
			Result: "tesSUCCESS",
		})
	}
	raw, err := json.Marshal(&l)
	if err != nil {
		panic(err)
	}
	if envelope {
		env := struct {
			Ledger      json.RawMessage `json:"ledger"`
			LedgerIndex int64           `json:"ledger_index"`
			Validated   bool            `json:"validated"`
		}{raw, l.LedgerIndex, true}
		raw, err = json.Marshal(env)
		if err != nil {
			panic(err)
		}
	}
	return raw
}

// pinZeroAllocs warms the codec once, then requires exactly zero
// allocations per run.
func pinZeroAllocs(t *testing.T, name string, warm func()) {
	t.Helper()
	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	warm()
	if allocs := testing.AllocsPerRun(200, warm); allocs != 0 {
		t.Errorf("%s: %.1f allocs/op in steady state, want 0", name, allocs)
	}
}

func TestDecodeSteadyStateZeroAllocs(t *testing.T) {
	c := NewCodec()

	eosRaw := eosFixture()
	eosBlock := GetEOSBlock()
	defer PutEOSBlock(eosBlock)
	pinZeroAllocs(t, "DecodeEOSBlock", func() {
		if err := c.DecodeEOSBlock(eosRaw, eosBlock); err != nil {
			t.Fatal(err)
		}
	})

	tezosRaw := tezosFixture()
	tezosBlock := GetTezosBlock()
	defer PutTezosBlock(tezosBlock)
	pinZeroAllocs(t, "DecodeTezosBlock", func() {
		if err := c.DecodeTezosBlock(tezosRaw, tezosBlock); err != nil {
			t.Fatal(err)
		}
	})

	ledger := GetXRPLedger()
	defer PutXRPLedger(ledger)
	envRaw := xrpFixture(true)
	pinZeroAllocs(t, "DecodeXRPLedgerResult", func() {
		if err := c.DecodeXRPLedgerResult(envRaw, ledger); err != nil {
			t.Fatal(err)
		}
	})

	// The split hands out a span of the frame and interned strings: the
	// payload buffer its caller copies the span into is the only memory a
	// fetched ledger costs.
	frame := xrpResponse(envRaw)
	var env XRPEnvelope
	pinZeroAllocs(t, "SplitXRPEnvelope", func() {
		if err := c.SplitXRPEnvelope(frame, &env); err != nil || env.Status != "success" || len(env.Result) != len(envRaw) {
			t.Fatalf("split: %+v, %v", env, err)
		}
	})
}

// TestDecodeUniqueIDStreamStaysFlat is the zero pin on a stream that looks
// like a crawl rather than a loop: every block carries ids, hashes and
// memos no other block has. None of them is read, so none may reach the
// intern table or the allocator — the table ends holding read strings only
// and a window of blocks the codec has never seen still decodes at zero
// allocations.
func TestDecodeUniqueIDStreamStaysFlat(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	const warm, window = 1000, 1000
	eosRaws := make([][]byte, warm+window+1)
	xrpRaws := make([][]byte, len(eosRaws))
	for i := range eosRaws {
		b := EOSBlockJSON{
			BlockNum: uint32(i + 1), ID: fmt.Sprintf("%064x", 2*i+1), Previous: fmt.Sprintf("%064x", 2*i),
			Timestamp: "2019-10-01T00:00:00.500", Producer: "eosproducer1",
		}
		l := XRPLedgerJSON{
			LedgerIndex: int64(i + 1), LedgerHash: fmt.Sprintf("%064X", 2*i+1), ParentHash: fmt.Sprintf("%064X", 2*i),
			CloseTime: "2019-10-01T00:00:00Z", TxCount: 4,
		}
		for j := 0; j < 4; j++ {
			var tx EOSTrxJSON
			tx.Status = "executed"
			tx.Trx.ID = fmt.Sprintf("%060x%04x", i, j)
			tx.Trx.Transaction.Actions = []EOSActionJSON{{
				Account: "eosio.token", Name: "transfer",
				Authorization: []map[string]string{{"actor": "alicealice12", "permission": "active"}},
				Data: map[string]string{
					"from": "alicealice12", "to": "bobbobbob123", "quantity": "1.0000 EOS",
					"memo": fmt.Sprintf("order %d/%d — \"thanks\"", i, j),
				},
			}}
			b.Transactions = append(b.Transactions, tx)
			l.Transactions = append(l.Transactions, XRPTxJSON{
				Hash: fmt.Sprintf("%060X%04X", i, j), TransactionType: "Payment", Account: "rAlice",
				Destination: "rBob", Fee: 10, Sequence: 42,
				Amount: &XRPAmountJSON{Currency: "XRP", Value: 1000000}, Result: "tesSUCCESS",
			})
		}
		var err error
		if eosRaws[i], err = json.Marshal(&b); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(&l)
		if err != nil {
			t.Fatal(err)
		}
		xrpRaws[i] = xrpEnvelope(raw, l.LedgerIndex)
	}

	c := NewCodec()
	block, ledger := GetEOSBlock(), GetXRPLedger()
	defer PutEOSBlock(block)
	defer PutXRPLedger(ledger)
	read := make(map[string]bool) // every string a projection held
	next := 0
	step := func() {
		if err := c.decodeEOSBlock(eosRaws[next], block); err != nil {
			t.Fatal(err)
		}
		if err := c.decodeXRPLedgerResult(xrpRaws[next], ledger); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < warm {
		step()
		read[block.Timestamp], read[ledger.CloseTime] = true, true
		for _, trx := range block.Transactions {
			for _, a := range trx.Actions {
				for _, s := range []string{a.Account, a.Name, a.Actor, a.From, a.To, a.Quantity, a.Buyer, a.Seller} {
					read[s] = true
				}
			}
		}
		for _, tx := range ledger.Transactions {
			for _, s := range []string{tx.TransactionType, tx.Account, tx.Destination, tx.Result, tx.Amount.Currency, tx.Amount.Issuer} {
				read[s] = true
			}
		}
	}
	delete(read, "") // never interned
	if len(c.intern) > len(read) {
		t.Errorf("intern table holds %d strings after %d blocks, the projections held %d distinct ones: unread strings are being interned",
			len(c.intern), warm, len(read))
	}
	if allocs := testing.AllocsPerRun(window, step); allocs != 0 {
		t.Errorf("decoding blocks with never-seen ids, hashes and memos: %.2f allocs/block, want 0", allocs)
	}
}

func TestEncodeSteadyStateZeroAllocs(t *testing.T) {
	c := NewCodec()

	var eosBlock EOSBlockJSON
	if err := json.Unmarshal(eosFixture(), &eosBlock); err != nil {
		t.Fatal(err)
	}
	var tezosBlock TezosBlockJSON
	if err := json.Unmarshal(tezosFixture(), &tezosBlock); err != nil {
		t.Fatal(err)
	}
	var ledger XRPLedgerJSON
	if err := json.Unmarshal(xrpFixture(false), &ledger); err != nil {
		t.Fatal(err)
	}

	buf := GetBuffer()
	defer PutBuffer(buf)
	pinZeroAllocs(t, "AppendEOSBlock", func() {
		buf.B = c.AppendEOSBlock(buf.B[:0], &eosBlock)
	})
	pinZeroAllocs(t, "AppendTezosBlock", func() {
		buf.B = c.AppendTezosBlock(buf.B[:0], &tezosBlock)
	})
	pinZeroAllocs(t, "AppendXRPLedger", func() {
		buf.B = c.AppendXRPLedger(buf.B[:0], &ledger)
	})
	pinZeroAllocs(t, "AppendXRPLedgerResponse", func() {
		out, ok := c.AppendXRPLedgerResponse(buf.B[:0], 7, &ledger, ledger.LedgerIndex)
		if !ok {
			t.Fatal("fast-path id rejected")
		}
		buf.B = out
	})
}
