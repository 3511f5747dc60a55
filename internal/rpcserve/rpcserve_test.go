package rpcserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/eos"
	"repro/internal/testkit"
	"repro/internal/tezos"
	"repro/internal/wire"
	"repro/internal/wsrpc"
	"repro/internal/xrp"
)

func TestEOSServerErrors(t *testing.T) {
	c := eos.New(eos.DefaultConfig(1000))
	c.ProduceBlock()
	srv := httptest.NewServer(NewEOSServer(c))
	defer srv.Close()

	// get_info works and reports head 1.
	resp, err := http.Post(srv.URL+"/v1/chain/get_info", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		HeadBlockNum uint32 `json:"head_block_num"`
	}
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if info.HeadBlockNum != 1 {
		t.Fatalf("head = %d", info.HeadBlockNum)
	}

	cases := []struct {
		body string
		want int
	}{
		{`{"block_num_or_id": 99}`, http.StatusNotFound},
		{`{"block_num_or_id": -1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/v1/chain/get_block", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %q -> %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}

	// GET on a POST route is rejected by the mux.
	resp, err = http.Get(srv.URL + "/v1/chain/get_block")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET get_block -> %d", resp.StatusCode)
	}
}

func TestTezosServerErrors(t *testing.T) {
	c := tezos.New(tezos.DefaultConfig(1000))
	srv := httptest.NewServer(NewTezosServer(c))
	defer srv.Close()

	// Empty chain: head is a 404.
	resp, err := http.Get(srv.URL + "/chains/main/blocks/head")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty head -> %d", resp.StatusCode)
	}
	resp, _ = http.Get(srv.URL + "/chains/main/blocks/abc")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad level -> %d", resp.StatusCode)
	}
}

func TestRateLimitMiddleware(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(EndpointProfile{RatePerSec: 5, Burst: 2}.Middleware(handler))
	defer srv.Close()

	var limited int
	for i := 0; i < 10; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			limited++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		}
	}
	if limited == 0 {
		t.Fatal("burst of 10 never hit the limit")
	}
}

func TestTokenBucketRefills(t *testing.T) {
	b := NewTokenBucket(100, 1)
	if !b.Allow() {
		t.Fatal("first request denied")
	}
	if b.Allow() {
		t.Fatal("second immediate request allowed with burst 1")
	}
	time.Sleep(25 * time.Millisecond) // 100/s refills one token in 10ms
	if !b.Allow() {
		t.Fatal("bucket did not refill")
	}
	var nilBucket *TokenBucket
	if !nilBucket.Allow() {
		t.Fatal("nil bucket must be unlimited")
	}
}

func TestXRPServerCommands(t *testing.T) {
	s := xrp.New(xrp.DefaultConfig(1000))
	a := xrp.NewAddress("a")
	b := xrp.NewAddress("b")
	s.Fund(a, 1000*xrp.DropsPerXRP)
	s.Fund(b, 1000*xrp.DropsPerXRP)
	s.Submit(xrp.Transaction{Type: xrp.TxPayment, Account: a, Destination: b, Amount: xrp.XRP(1)})
	s.CloseLedger()
	srv := httptest.NewServer(NewXRPServer(s))
	defer srv.Close()

	conn, err := wsrpc.Dial("ws" + strings.TrimPrefix(srv.URL, "http"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Unknown command errors but keeps the connection alive.
	conn.WriteJSON(map[string]any{"id": 1, "command": "bogus"})
	var resp map[string]any
	conn.ReadJSON(&resp)
	if resp["status"] != "error" {
		t.Fatalf("bogus command: %+v", resp)
	}

	// Missing ledger.
	conn.WriteJSON(map[string]any{"id": 2, "command": "ledger", "ledger_index": 99})
	conn.ReadJSON(&resp)
	if resp["error"] != "lgrNotFound" {
		t.Fatalf("missing ledger: %+v", resp)
	}

	// An id the ledger encoder does not render gets invalidParams, with the
	// id echoed.
	if err := conn.WriteMessage(wsrpc.OpText, []byte(`{"command":"ledger","id":1.5,"ledger_index":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, msg, err := conn.ReadMessage(); err != nil || string(msg) != `{"id":1.5,"status":"error","type":"response","error":"invalidParams"}` {
		t.Fatalf("id 1.5: %s, %v", msg, err)
	}

	// "validated" resolves to the head; expanded transactions decode.
	conn.WriteJSON(map[string]any{
		"id": 3, "command": "ledger", "ledger_index": "validated",
		"transactions": true, "expand": true,
	})
	var full struct {
		Result struct {
			Ledger wire.XRPLedgerJSON `json:"ledger"`
		} `json:"result"`
	}
	if err := conn.ReadJSON(&full); err != nil {
		t.Fatal(err)
	}
	led := full.Result.Ledger
	if led.LedgerIndex != 1 || led.TxCount != 1 || len(led.Transactions) != 1 {
		t.Fatalf("ledger: %+v", led)
	}
	tx := led.Transactions[0]
	if tx.TransactionType != "Payment" || tx.Result != "tesSUCCESS" {
		t.Fatalf("tx: %+v", tx)
	}
	if tx.Amount == nil || *tx.Amount != (wire.XRPAmountJSON{Currency: xrp.XRPCurrency, Value: xrp.DropsPerXRP}) {
		t.Fatalf("amount: %+v", tx.Amount)
	}
}

func TestEOSWireBlockShapes(t *testing.T) {
	c := eos.New(eos.DefaultConfig(1000))
	blk := c.ProduceBlock()
	var j wire.EOSBlockJSON
	eosWireBlock(blk, &j)
	if j.BlockNum != 1 || j.Producer == "" || j.ID == "" {
		t.Fatalf("json: %+v", j)
	}
	if _, err := time.Parse("2006-01-02T15:04:05.000", j.Timestamp); err != nil {
		t.Fatalf("timestamp format: %v", err)
	}
}

// TestXRPWireLedgerSteadyStateAllocs pins what the ledger conversion
// allocates once its converter, ledger struct and free list are warm: per
// ledger its hash, its parent's hash, its close time and the one string
// holding every transaction hash, and nothing per amount, although the two
// ledgers put amounts in different fields — 8 for this pair (22 when every
// hash took two allocations of its own).
func TestXRPWireLedgerSteadyStateAllocs(t *testing.T) {
	s := xrp.New(xrp.DefaultConfig(1000))
	a, b, gw := xrp.NewAddress("a"), xrp.NewAddress("b"), xrp.NewAddress("gw")
	for _, addr := range []xrp.Address{a, b, gw} {
		s.Fund(addr, 1000*xrp.DropsPerXRP)
	}
	s.Submit(xrp.Transaction{Type: xrp.TxPayment, Account: a, Destination: b, Amount: xrp.XRP(1)})
	s.Submit(xrp.Transaction{Type: xrp.TxTrustSet, Account: a, LimitAmount: xrp.IOU("USD", gw, 100)})
	s.Submit(xrp.Transaction{Type: xrp.TxOfferCreate, Account: b, TakerGets: xrp.XRP(2), TakerPays: xrp.IOU("USD", gw, 1)})
	first := s.CloseLedger()
	s.Submit(xrp.Transaction{Type: xrp.TxOfferCreate, Account: a, TakerGets: xrp.IOU("USD", gw, 1), TakerPays: xrp.XRP(2)})
	s.Submit(xrp.Transaction{Type: xrp.TxPayment, Account: gw, Destination: a, Amount: xrp.IOU("USD", gw, 5)})
	s.Submit(xrp.Transaction{Type: xrp.TxAccountSet, Account: b})
	second := s.CloseLedger()
	if len(first.Transactions) != 3 || len(second.Transactions) != 3 {
		t.Fatalf("fixture ledgers hold %d and %d transactions, want 3 and 3", len(first.Transactions), len(second.Transactions))
	}

	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	var cv converter
	var lj wire.XRPLedgerJSON
	pair := func() {
		cv.wireLedger(first, true, &lj)
		cv.wireLedger(second, true, &lj)
	}
	pair()
	pair()
	if allocs := testing.AllocsPerRun(200, pair); allocs != 8 {
		t.Fatalf("converting the ledger pair allocates %v times, want 8", allocs)
	}
}
