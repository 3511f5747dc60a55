package rpcserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/eos"
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

func TestEOSAccountEndpoints(t *testing.T) {
	c := eos.New(eos.DefaultConfig(1000))
	if err := c.CreateAccount(eos.MustName("carol"), eos.SystemAccount); err != nil {
		t.Fatal(err)
	}
	if err := c.Tokens().Transfer(eos.TokenAccount, eos.SystemAccount, eos.MustName("carol"),
		mustAsset(t, "12.5000 EOS")); err != nil {
		t.Fatal(err)
	}
	c.Resources().Stake(&c.GetAccount(eos.MustName("carol")).Resources, 42, 7)
	srv := httptest.NewServer(NewEOSServer(c))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/chain/get_account", "application/json",
		strings.NewReader(`{"account_name":"carol"}`))
	if err != nil {
		t.Fatal(err)
	}
	var acct struct {
		AccountName string `json:"account_name"`
		CPUWeight   int64  `json:"cpu_weight"`
		Creator     string `json:"creator"`
	}
	json.NewDecoder(resp.Body).Decode(&acct)
	resp.Body.Close()
	if acct.AccountName != "carol" || acct.CPUWeight != 42 || acct.Creator != "eosio" {
		t.Fatalf("account: %+v", acct)
	}

	resp, _ = http.Post(srv.URL+"/v1/chain/get_account", "application/json",
		strings.NewReader(`{"account_name":"ghost"}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost account -> %d", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/chain/get_currency_balance", "application/json",
		strings.NewReader(`{"code":"eosio.token","account":"carol","symbol":"EOS"}`))
	if err != nil {
		t.Fatal(err)
	}
	var balances []string
	json.NewDecoder(resp.Body).Decode(&balances)
	resp.Body.Close()
	if len(balances) != 1 || balances[0] != "12.5000 EOS" {
		t.Fatalf("balances: %v", balances)
	}
}

func mustAsset(t *testing.T, s string) chain.Asset {
	t.Helper()
	a, err := chain.ParseAsset(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTezosVotesEndpoints(t *testing.T) {
	cfg := tezos.DefaultConfig(1000)
	cfg.Governance.BlocksPerPeriod = 4
	c := tezos.New(cfg)
	for i := 0; i < 5; i++ {
		addr := tezos.NewImplicitAddress(fmt.Sprintf("vb-%d", i))
		if err := c.RegisterBaker(addr, 50_000*1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range c.Bakers() {
		c.Inject(tezos.Operation{Kind: tezos.KindProposals, Source: b.Address, Proposal: "PsTest"})
	}
	for i := 0; i < 5; i++ {
		if _, err := c.ProduceBlock(); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewTezosServer(c))
	defer srv.Close()

	var kind string
	getJSON(t, srv.URL+"/chains/main/blocks/head/votes/current_period_kind", &kind)
	if kind != "exploration" {
		t.Fatalf("period kind = %q", kind)
	}
	var proposal string
	getJSON(t, srv.URL+"/chains/main/blocks/head/votes/current_proposal", &proposal)
	if proposal != "PsTest" {
		t.Fatalf("proposal = %q", proposal)
	}
	// Cast one ballot, then read the tallies.
	c.Inject(tezos.Operation{Kind: tezos.KindBallot, Source: c.Bakers()[0].Address,
		Proposal: "PsTest", Ballot: tezos.VoteYay})
	c.ProduceBlock()
	var tallies map[string]int64
	getJSON(t, srv.URL+"/chains/main/blocks/head/votes/ballots", &tallies)
	if tallies["yay"] <= 0 {
		t.Fatalf("tallies: %v", tallies)
	}
	var periods []map[string]any
	getJSON(t, srv.URL+"/chains/main/blocks/head/votes/periods", &periods)
	if len(periods) == 0 || periods[0]["outcome"] != "advanced" {
		t.Fatalf("periods: %v", periods)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s -> %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestXRPAccountAndBookCommands(t *testing.T) {
	s := xrp.New(xrp.DefaultConfig(1000))
	gw := xrp.NewAddress("cmd-gw")
	maker := xrp.NewAddress("cmd-maker")
	s.Fund(gw, 100_000*xrp.DropsPerXRP)
	s.Fund(maker, 100_000*xrp.DropsPerXRP)
	s.Submit(xrp.Transaction{Type: xrp.TxTrustSet, Account: maker, LimitAmount: xrp.IOU("USD", gw, 1000)})
	s.CloseLedger()
	s.Submit(xrp.Transaction{Type: xrp.TxPayment, Account: gw, Destination: maker, Amount: xrp.IOU("USD", gw, 500)})
	s.Submit(xrp.Transaction{Type: xrp.TxOfferCreate, Account: maker,
		TakerGets: xrp.IOU("USD", gw, 100), TakerPays: xrp.XRP(490)})
	s.CloseLedger()

	srv := httptest.NewServer(NewXRPServer(s))
	defer srv.Close()
	conn, err := wsrpc.Dial("ws" + strings.TrimPrefix(srv.URL, "http"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// account_info.
	conn.WriteJSON(map[string]any{"id": 1, "command": "account_info", "account": string(maker)})
	var infoResp struct {
		Result struct {
			AccountData struct {
				Balance    int64 `json:"Balance"`
				OwnerCount int   `json:"OwnerCount"`
			} `json:"account_data"`
		} `json:"result"`
	}
	if err := conn.ReadJSON(&infoResp); err != nil {
		t.Fatal(err)
	}
	if infoResp.Result.AccountData.OwnerCount != 2 { // line + offer
		t.Fatalf("owner count = %d", infoResp.Result.AccountData.OwnerCount)
	}

	// account_lines.
	conn.WriteJSON(map[string]any{"id": 2, "command": "account_lines", "account": string(maker)})
	var linesResp struct {
		Result struct {
			Lines []struct {
				Currency string `json:"currency"`
				Balance  int64  `json:"balance"`
			} `json:"lines"`
		} `json:"result"`
	}
	if err := conn.ReadJSON(&linesResp); err != nil {
		t.Fatal(err)
	}
	if len(linesResp.Result.Lines) != 1 || linesResp.Result.Lines[0].Currency != "USD" {
		t.Fatalf("lines: %+v", linesResp.Result)
	}
	if linesResp.Result.Lines[0].Balance != 500*xrp.DropsPerXRP {
		t.Fatalf("line balance: %d", linesResp.Result.Lines[0].Balance)
	}

	// book_offers.
	conn.WriteJSON(map[string]any{
		"id": 3, "command": "book_offers",
		"taker_gets": "USD+" + string(gw), "taker_pays": "XRP",
	})
	var bookResp struct {
		Result struct {
			Offers []struct {
				Account string  `json:"Account"`
				Quality float64 `json:"quality"`
			} `json:"offers"`
		} `json:"result"`
	}
	if err := conn.ReadJSON(&bookResp); err != nil {
		t.Fatal(err)
	}
	if len(bookResp.Result.Offers) != 1 || bookResp.Result.Offers[0].Account != string(maker) {
		t.Fatalf("book: %+v", bookResp.Result)
	}
	if q := bookResp.Result.Offers[0].Quality; q < 4.89 || q > 4.91 {
		t.Fatalf("quality = %f", q)
	}

	// Unknown account.
	conn.WriteJSON(map[string]any{"id": 4, "command": "account_info", "account": "rGhost"})
	var errResp map[string]any
	conn.ReadJSON(&errResp)
	if errResp["error"] != "actNotFound" {
		t.Fatalf("ghost: %v", errResp)
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

	if raceEnabled {
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
