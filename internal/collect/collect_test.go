package collect

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/eos"
	"repro/internal/rpcserve"
	"repro/internal/testkit"
	"repro/internal/tezos"
	"repro/internal/wire"
	"repro/internal/wsrpc"
	"repro/internal/xrp"
)

// crawl drains Stream through visit on one goroutine: the callback shape
// the Crawl* tests are written in. A visit error wins over the crawl's own.
func crawl(ctx context.Context, f BlockFetcher, cfg CrawlConfig, visit func(num int64, raw []byte) error) (CrawlResult, error) {
	blocks, handle := Stream(ctx, f, cfg)
	var visitErr error
	for blk := range blocks {
		if err := visit(blk.Num, blk.Raw); err != nil && visitErr == nil {
			visitErr = err
		}
		blk.Release()
	}
	res, err := handle.Wait()
	if visitErr != nil {
		return res, visitErr
	}
	return res, err
}

// decodeRaw parses one payload into a fresh struct through the pooled wire
// codec.
func decodeRaw[B any](raw []byte, decode func(*wire.Codec, []byte, *B) error) (*B, error) {
	var b B
	c := wire.GetCodec()
	defer wire.PutCodec(c)
	return &b, decode(c, raw, &b)
}

// eosTestServer produces an EOS chain with nBlocks blocks (one transfer per
// block) and serves it.
func eosTestServer(t *testing.T, nBlocks int, profile rpcserve.EndpointProfile) *httptest.Server {
	t.Helper()
	c := eos.New(eos.DefaultConfig(1000))
	alice, bob := eos.MustName("alice"), eos.MustName("bob")
	for _, n := range []eos.Name{alice, bob} {
		if err := c.CreateAccount(n, eos.SystemAccount); err != nil {
			t.Fatal(err)
		}
		if err := c.Tokens().Transfer(eos.TokenAccount, eos.SystemAccount, n, chain.EOSAsset(1_000_0000)); err != nil {
			t.Fatal(err)
		}
		c.Resources().Stake(&c.GetAccount(n).Resources, 100_0000, 100_0000)
	}
	for i := 0; i < nBlocks; i++ {
		c.PushTransaction(eos.NewAction(eos.TokenAccount, eos.ActTransfer, alice, map[string]string{
			"from": "alice", "to": "bob", "quantity": "0.0001 EOS",
		}))
		c.ProduceBlock()
	}
	return httptest.NewServer(profile.Middleware(rpcserve.NewEOSServer(c)))
}

func TestCrawlEOSReverseChronological(t *testing.T) {
	srv := eosTestServer(t, 20, rpcserve.EndpointProfile{})
	defer srv.Close()

	client := NewEOSClient(srv.URL)
	var mu sync.Mutex
	var order []int64
	res, err := crawl(context.Background(), client, CrawlConfig{Workers: 1}, func(num int64, raw []byte) error {
		mu.Lock()
		order = append(order, num)
		mu.Unlock()
		if _, err := decodeRaw(raw, (*wire.Codec).DecodeEOSBlock); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 20 || res.Failed != 0 {
		t.Fatalf("crawl result: %+v", res)
	}
	// A tee-less stream deflates nothing: the footprint is core.IngestCrawl's.
	if res.GzipBytes != 0 || res.RawBytes == 0 {
		t.Fatalf("byte accounting wrong: raw=%d gzip=%d, want raw counted and no footprint", res.RawBytes, res.GzipBytes)
	}
	// Single worker must deliver newest-first.
	if order[0] != 20 || order[len(order)-1] != 1 {
		t.Fatalf("order: %v", order)
	}
}

func TestCrawlConcurrentWorkersComplete(t *testing.T) {
	srv := eosTestServer(t, 50, rpcserve.EndpointProfile{})
	defer srv.Close()
	client := NewEOSClient(srv.URL)
	var seen sync.Map
	res, err := crawl(context.Background(), client, CrawlConfig{Workers: 8}, func(num int64, raw []byte) error {
		seen.Store(num, true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 50 {
		t.Fatalf("blocks = %d", res.Blocks)
	}
	for i := int64(1); i <= 50; i++ {
		if _, ok := seen.Load(i); !ok {
			t.Fatalf("block %d never delivered", i)
		}
	}
}

func TestCrawlSurvivesRateLimiting(t *testing.T) {
	// Each 429 costs a full Retry-After sleep, so the block count sets
	// this test's wall-clock; -short keeps just enough to trip the limit.
	nBlocks := 15
	if testing.Short() {
		nBlocks = 5
	}
	srv := eosTestServer(t, nBlocks, rpcserve.EndpointProfile{RatePerSec: 200, Burst: 3})
	defer srv.Close()
	client := NewEOSClient(srv.URL)
	res, err := crawl(context.Background(), client, CrawlConfig{
		Workers: 4, MaxRetries: 10, Backoff: 5 * time.Millisecond,
	}, func(int64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != int64(nBlocks) {
		t.Fatalf("blocks = %d (failed %d)", res.Blocks, res.Failed)
	}
	if res.Retries == 0 {
		t.Fatal("rate limit never triggered a retry — bucket too generous for the test")
	}
}

func TestCrawlRangeValidation(t *testing.T) {
	srv := eosTestServer(t, 3, rpcserve.EndpointProfile{})
	defer srv.Close()
	client := NewEOSClient(srv.URL)
	if _, err := crawl(context.Background(), client, CrawlConfig{From: 10, To: 5}, func(int64, []byte) error { return nil }); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestCrawlContextCancellation(t *testing.T) {
	srv := eosTestServer(t, 30, rpcserve.EndpointProfile{Latency: 20 * time.Millisecond})
	defer srv.Close()
	client := NewEOSClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := crawl(ctx, client, CrawlConfig{Workers: 1}, func(int64, []byte) error { return nil })
	if err == nil {
		t.Fatal("cancelled crawl reported success")
	}
}

func TestCrawlTezos(t *testing.T) {
	c := tezos.New(tezos.DefaultConfig(1000))
	for i := 0; i < 5; i++ {
		addr := tezos.NewImplicitAddress(fmt.Sprintf("baker-%d", i))
		if err := c.RegisterBaker(addr, 50_000*1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		if _, err := c.ProduceBlock(); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(rpcserve.NewTezosServer(c))
	defer srv.Close()

	client := NewTezosClient(srv.URL)
	var endorsements int64
	res, err := crawl(context.Background(), client, CrawlConfig{Workers: 3}, func(num int64, raw []byte) error {
		blk, err := decodeRaw(raw, (*wire.Codec).DecodeTezosBlock)
		if err != nil {
			return err
		}
		for _, op := range blk.Operations {
			if op.Kind == string(tezos.KindEndorsement) {
				atomic.AddInt64(&endorsements, 1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 12 {
		t.Fatalf("blocks = %d", res.Blocks)
	}
	if endorsements == 0 {
		t.Fatal("no endorsements crawled")
	}
}

func TestCrawlXRPOverWebSocket(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		s := xrp.New(xrp.DefaultConfig(1000))
		a1, a2 := xrp.NewAddress("w1"), xrp.NewAddress("w2")
		s.Fund(a1, 10_000*xrp.DropsPerXRP)
		s.Fund(a2, 10_000*xrp.DropsPerXRP)
		for i := 0; i < 8; i++ {
			s.Submit(xrp.Transaction{Type: xrp.TxPayment, Account: a1, Destination: a2, Amount: xrp.XRP(1)})
			s.CloseLedger()
		}
		srv := httptest.NewServer(rpcserve.NewXRPServer(s))
		defer srv.Close()

		client := NewXRPClient("ws" + strings.TrimPrefix(srv.URL, "http"))
		defer client.Close()
		head, err := client.Head(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if head != 8 {
			t.Fatalf("head = %d", head)
		}
		var txs int64
		res, err := crawl(context.Background(), client, CrawlConfig{Workers: 1}, func(num int64, raw []byte) error {
			led, err := decodeRaw(raw, (*wire.Codec).DecodeXRPLedgerResult)
			if err != nil {
				return err
			}
			atomic.AddInt64(&txs, int64(len(led.Transactions)))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Blocks != 8 || txs != 8 {
			t.Fatalf("blocks=%d txs=%d", res.Blocks, txs)
		}
	})
}

func TestProbeAndShortlist(t *testing.T) {
	fast := eosTestServer(t, 2, rpcserve.EndpointProfile{})
	defer fast.Close()
	slow := eosTestServer(t, 2, rpcserve.EndpointProfile{Latency: 30 * time.Millisecond})
	defer slow.Close()
	limited := eosTestServer(t, 2, rpcserve.EndpointProfile{RatePerSec: 1, Burst: 1})
	defer limited.Close()

	ctx := context.Background()
	scores := []EndpointScore{
		ProbeEndpoint(ctx, fast.URL, NewEOSClient(fast.URL), 8),
		ProbeEndpoint(ctx, slow.URL, NewEOSClient(slow.URL), 8),
		ProbeEndpoint(ctx, limited.URL, NewEOSClient(limited.URL), 8),
		ProbeEndpoint(ctx, "http://127.0.0.1:1", NewEOSClient("http://127.0.0.1:1"), 2),
	}
	if scores[3].Reachable {
		t.Fatal("dead endpoint reported reachable")
	}
	if scores[2].SuccessRate >= scores[0].SuccessRate {
		t.Fatalf("rate-limited endpoint not penalized: %f vs %f",
			scores[2].SuccessRate, scores[0].SuccessRate)
	}
	short := Shortlist(scores, 2)
	if len(short) != 2 {
		t.Fatalf("shortlist size %d", len(short))
	}
	if short[0].URL != fast.URL {
		t.Fatalf("best endpoint = %s, want the fast one", short[0].URL)
	}
}

func TestMultiFetcherRotates(t *testing.T) {
	a := eosTestServer(t, 10, rpcserve.EndpointProfile{})
	defer a.Close()
	b := eosTestServer(t, 10, rpcserve.EndpointProfile{})
	defer b.Close()
	m := &MultiFetcher{Fetchers: []BlockFetcher{NewEOSClient(a.URL), NewEOSClient(b.URL)}}
	res, err := crawl(context.Background(), m, CrawlConfig{Workers: 4}, func(int64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 10 {
		t.Fatalf("blocks = %d", res.Blocks)
	}
}

func TestFetchWithRetryGivesUp(t *testing.T) {
	client := NewEOSClient("http://127.0.0.1:1") // nothing listens
	_, err := crawl(context.Background(), client, CrawlConfig{
		From: 1, To: 2, Workers: 1, MaxRetries: 1, Backoff: time.Millisecond,
	}, func(int64, []byte) error { return nil })
	if err == nil {
		t.Fatal("crawl against dead endpoint succeeded")
	}
	var rl rateLimitError
	if errors.As(err, &rl) {
		t.Fatal("unexpected rate limit error type")
	}
}

// flakyHandler fails every other request with a 500 to exercise retry.
func TestCrawlSurvivesFlakyServer(t *testing.T) {
	inner := eosTestServer(t, 10, rpcserve.EndpointProfile{})
	defer inner.Close()
	var calls int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt64(&calls, 1)%3 == 0 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		resp, err := http.Post(inner.URL+r.URL.Path, "application/json", r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer flaky.Close()

	client := NewEOSClient(flaky.URL)
	res, err := crawl(context.Background(), client, CrawlConfig{
		Workers: 2, MaxRetries: 6, Backoff: time.Millisecond,
	}, func(int64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 10 {
		t.Fatalf("blocks = %d (failed %d)", res.Blocks, res.Failed)
	}
	if res.Retries == 0 {
		t.Fatal("flaky server never triggered retries")
	}
}

// TestCrawlSinkErrorPropagates: a failing sink must surface as the crawl
// error rather than being swallowed.
func TestCrawlSinkErrorPropagates(t *testing.T) {
	srv := eosTestServer(t, 5, rpcserve.EndpointProfile{})
	defer srv.Close()
	sinkErr := errors.New("sink exploded")
	_, err := crawl(context.Background(), NewEOSClient(srv.URL), CrawlConfig{Workers: 2},
		func(int64, []byte) error { return sinkErr })
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want sink error", err)
	}
}

func BenchmarkCrawlThroughput(b *testing.B) {
	srv := eosTestServer(&testing.T{}, 50, rpcserve.EndpointProfile{})
	defer srv.Close()
	client := NewEOSClient(srv.URL)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := crawl(context.Background(), client, CrawlConfig{Workers: 8},
			func(int64, []byte) error { return nil })
		if err != nil || res.Blocks != 50 {
			b.Fatalf("crawl: %+v %v", res, err)
		}
	}
}

// TestXRPClientReconnects: the client must survive a server that drops the
// connection mid-crawl by redialing on the next call.
func TestXRPClientReconnects(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		s := xrp.New(xrp.DefaultConfig(1000))
		a1, a2 := xrp.NewAddress("rc1"), xrp.NewAddress("rc2")
		s.Fund(a1, 10_000*xrp.DropsPerXRP)
		s.Fund(a2, 10_000*xrp.DropsPerXRP)
		for i := 0; i < 6; i++ {
			s.Submit(xrp.Transaction{Type: xrp.TxPayment, Account: a1, Destination: a2, Amount: xrp.XRP(1)})
			s.CloseLedger()
		}
		inner := rpcserve.NewXRPServer(s)
		// A wrapper that kills every connection after 2 requests.
		var served int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conn, err := wsrpc.Upgrade(w, r)
			if err != nil {
				return
			}
			defer conn.Close()
			for i := 0; i < 2; i++ {
				var req map[string]any
				if err := conn.ReadJSON(&req); err != nil {
					return
				}
				atomic.AddInt64(&served, 1)
				// Proxy through a real handler by re-marshaling: simplest is
				// to answer ledger/server_info from state directly via the
				// inner server's logic — reuse by dialing it is overkill, so
				// answer server_info inline and ledger via the state.
				id := req["id"]
				switch req["command"] {
				case "server_info":
					conn.WriteJSON(map[string]any{"id": id, "status": "success", "type": "response",
						"result": map[string]any{"info": map[string]any{
							"validated_ledger": map[string]any{"seq": s.HeadIndex()},
						}}})
				case "ledger":
					idx := int64(req["ledger_index"].(float64))
					led := s.GetLedger(idx)
					if led == nil {
						conn.WriteJSON(map[string]any{"id": id, "status": "error", "error": "lgrNotFound"})
						continue
					}
					conn.WriteJSON(map[string]any{"id": id, "status": "success", "type": "response",
						"result": map[string]any{"ledger": rpcserve.XRPLedgerToJSON(led, true)}})
				}
			}
			// Connection drops here; the client must redial.
		}))
		defer srv.Close()
		_ = inner

		client := NewXRPClient("ws" + strings.TrimPrefix(srv.URL, "http"))
		defer client.Close()
		res, err := crawl(context.Background(), client, CrawlConfig{
			Workers: 1, MaxRetries: 6, Backoff: time.Millisecond,
		}, func(num int64, raw []byte) error {
			_, err := decodeRaw(raw, (*wire.Codec).DecodeXRPLedgerResult)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Blocks != 6 {
			t.Fatalf("blocks = %d (failed %d, retries %d)", res.Blocks, res.Failed, res.Retries)
		}
		if res.Retries == 0 {
			t.Fatal("disconnections never triggered retries")
		}
	})
}

// TestXRPClientCancelWakesSilentPeer: a peer that accepts a command and never
// replies must not outlive the caller's context — the stream joins its fetch
// workers before it closes, so a read parked on the socket would keep Wait
// from ever returning. The cancelled call drops the connection; the next one
// redials.
func TestXRPClientCancelWakesSilentPeer(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		var conns atomic.Int64
		got := make(chan struct{}, 1)
		release := make(chan struct{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conn, err := wsrpc.Upgrade(w, r)
			if err != nil {
				return
			}
			defer conn.Close()
			first := conns.Add(1) == 1
			var req map[string]any
			if err := conn.ReadJSON(&req); err != nil {
				return
			}
			if first {
				got <- struct{}{}
				<-release // the command arrived; say nothing
				return
			}
			conn.WriteJSON(map[string]any{"id": req["id"], "status": "success", "type": "response",
				"result": map[string]any{"info": map[string]any{"validated_ledger": map[string]any{"seq": 7}}}})
		}))
		defer srv.Close()
		defer close(release)

		client := NewXRPClient("ws" + strings.TrimPrefix(srv.URL, "http"))
		defer client.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		blocks, h := Stream(ctx, client, CrawlConfig{From: 1, To: 5, Workers: 1})
		<-got
		cancel()
		waited := make(chan error, 1)
		go func() {
			for range blocks {
			}
			_, err := h.Wait()
			waited <- err
		}()
		select {
		case err := <-waited:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled crawl returned %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Wait never returned: the fetch worker is parked on a peer that stopped answering")
		}

		head, err := client.Head(context.Background())
		if err != nil || head != 7 {
			t.Fatalf("call after a cancelled one: head=%d err=%v, want a redial to answer 7", head, err)
		}
		if n := conns.Load(); n != 2 {
			t.Fatalf("server saw %d connections, want 2 (the cancelled one dropped, one redial)", n)
		}
	})
}

// TestXRPClientRefusesStaleReply: a connection that is one reply behind
// answers every command with the reply to some other one. The client must
// not serve that as the ledger it asked for: the call fails (retryably, like
// every fetch error), the connection is closed, and the next call gets its
// own reply on a fresh one — the result member byte for byte, whatever white
// space the peer put around it, in a buffer the caller owns.
func TestXRPClientRefusesStaleReply(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		var conns atomic.Int64
		firstClosed := make(chan struct{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conn, err := wsrpc.Upgrade(w, r)
			if err != nil {
				return
			}
			defer conn.Close()
			first := conns.Add(1) == 1
			if first {
				defer close(firstClosed)
			}
			for {
				var req struct {
					ID    int64 `json:"id"`
					Index int64 `json:"ledger_index"`
				}
				if err := conn.ReadJSON(&req); err != nil {
					return
				}
				id, index := req.ID, req.Index
				if first {
					id, index = id-1, index+1000 // the reply to the request before
				}
				frame := fmt.Sprintf(`{"id":%d,"status":"success","type":"response","result": {"ledger":{"ledger_index":%d}} }`, id, index)
				if err := conn.WriteMessage(wsrpc.OpText, []byte(frame)); err != nil {
					return
				}
			}
		}))
		defer srv.Close()

		client := NewXRPClient("ws" + strings.TrimPrefix(srv.URL, "http"))
		defer client.Close()
		ctx := context.Background()
		raw, err := client.FetchBlock(ctx, 5)
		if err == nil {
			t.Fatalf("the reply to another request was served as ledger 5: %s", raw)
		}
		if !strings.Contains(err.Error(), "desynchronised") {
			t.Fatalf("stale reply refused with %v, want the desynchronisation named", err)
		}
		select {
		case <-firstClosed:
		case <-time.After(5 * time.Second):
			t.Fatal("the desynchronised connection was forgotten, not closed")
		}

		raw, err = client.FetchBlock(ctx, 5)
		if err != nil {
			t.Fatalf("fetch after the dropped connection: %v", err)
		}
		if want := `{"ledger":{"ledger_index":5}}`; string(raw) != want {
			t.Fatalf("ledger 5 served as %q, want %q", raw, want)
		}
		if n := conns.Load(); n != 2 {
			t.Fatalf("server saw %d connections, want 2", n)
		}
		// The buffer is the caller's: scribbling over it and handing it back
		// must not reach the next fetch.
		for i := range raw {
			raw[i] = 'x'
		}
		wire.PutRaw(raw)
		again, err := client.FetchBlock(ctx, 6)
		if err != nil || string(again) != `{"ledger":{"ledger_index":6}}` {
			t.Fatalf("ledger 6 served as %q, %v", again, err)
		}
	})
}

// TestXRPCommandBytes: the XRP client appends its commands by hand; they
// must be the bytes encoding/json gives the same request as a map.
func TestXRPCommandBytes(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		for _, id := range []int64{1, 42, 1 << 40} {
			for _, ledger := range []int64{1, 52_431_069} {
				want, err := json.Marshal(map[string]any{"command": "ledger", "id": id, "ledger_index": ledger, "transactions": true, "expand": true})
				if err != nil {
					t.Fatal(err)
				}
				if got := appendCommand(nil, id, "ledger", ledger); string(got) != string(want) {
					t.Errorf("ledger command = %s, want %s", got, want)
				}
			}
			want, err := json.Marshal(map[string]any{"command": "server_info", "id": id})
			if err != nil {
				t.Fatal(err)
			}
			if got := appendCommand(nil, id, "server_info", 0); string(got) != string(want) {
				t.Errorf("server_info command = %s, want %s", got, want)
			}
		}
	})
}
