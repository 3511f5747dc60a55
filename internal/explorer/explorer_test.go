package explorer

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xrp"
)

// fixture builds a ledger with a registered exchange, a descendant, and a
// few BTC/XRP trades at known rates.
func fixture(t *testing.T) (*xrp.State, *Directory, xrp.Address, xrp.Address) {
	t.Helper()
	st := xrp.New(xrp.DefaultConfig(1000))
	exchange := xrp.NewAddress("big-exchange")
	st.Fund(exchange, 1_000_000*xrp.DropsPerXRP)
	// The exchange activates a child account via an XRP payment.
	child := xrp.NewAddress("exchange-child")
	st.Submit(xrp.Transaction{
		Type: xrp.TxPayment, Account: exchange, Destination: child, Amount: xrp.XRP(100),
	})
	st.CloseLedger()

	// One BTC/XRP trade at 30,000.
	gw := xrp.NewAddress("btc-gateway")
	st.Fund(gw, 100_000*xrp.DropsPerXRP)
	taker := xrp.NewAddress("btc-taker")
	st.Fund(taker, 100_000*xrp.DropsPerXRP)
	st.Submit(xrp.Transaction{
		Type: xrp.TxOfferCreate, Account: gw,
		TakerGets: xrp.IOU("BTC", gw, 1), TakerPays: xrp.XRP(30_000),
	})
	st.Submit(xrp.Transaction{
		Type: xrp.TxOfferCreate, Account: taker,
		TakerGets: xrp.XRP(30_001), TakerPays: xrp.IOU("BTC", gw, 1),
	})
	st.CloseLedger()

	dir := NewDirectory(st)
	dir.Register(exchange, "BigExchange")
	return st, dir, exchange, child
}

func TestDirectoryClustering(t *testing.T) {
	st, dir, exchange, child := fixture(t)
	var _ core.Directory = dir
	if got := dir.ClusterName(string(exchange)); got != "BigExchange" {
		t.Fatalf("exchange cluster = %q", got)
	}
	// Descendant resolution via the ledger's parent pointer.
	if got := dir.ClusterName(string(child)); got != "BigExchange -- descendant" {
		t.Fatalf("child cluster = %q", got)
	}
	if parent, at := dir.Activation(string(child)); parent != string(exchange) || !at.Equal(st.GetAccount(child).Activated) || at.IsZero() {
		t.Fatalf("child activation = %q at %v", parent, at)
	}
	// Unknown accounts fall back to the raw address and have no parent.
	anon := xrp.NewAddress("anon")
	if got := dir.ClusterName(string(anon)); got != string(anon) {
		t.Fatalf("anon cluster = %q", got)
	}
	if parent, at := dir.Activation(string(anon)); parent != "" || !at.IsZero() {
		t.Fatalf("anon activation = %q at %v", parent, at)
	}
}

func TestDirectoryLookup(t *testing.T) {
	_, dir, exchange, child := fixture(t)
	info := dir.Lookup(child)
	if info.Parent != exchange || info.ParentUsername != "BigExchange" {
		t.Fatalf("lookup: %+v", info)
	}
	if dir.Username(child) != "" {
		t.Fatal("child should have no username of its own")
	}
}

func TestServerEndpoints(t *testing.T) {
	_, dir, _, _ := fixture(t)
	srv := httptest.NewServer(NewServer(dir))
	defer srv.Close()

	// Exchange records round-trip through the wire format.
	exchanges, err := FetchExchanges(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(exchanges) != 1 {
		t.Fatalf("fetched %d exchanges", len(exchanges))
	}
	e := exchanges[0]
	if e.Base.Currency != "BTC" || e.Counter.Currency != "XRP" {
		t.Fatalf("exchange assets: %+v", e)
	}
	if rate := float64(e.CounterValue) / float64(e.BaseValue); rate < 29_999 || rate > 30_001 {
		t.Fatalf("exchange rate: %f", rate)
	}
	if e.MakerSequence == 0 {
		t.Fatal("maker sequence lost in transit")
	}

	// An asset that is neither XRP nor CUR+ISSUER is refused.
	bad := ExchangeToJSON(xrp.Exchange{Base: xrp.AssetKey{Currency: "NOPLUS"}, Counter: xrp.AssetKey{Currency: "XRP"}})
	if _, err := bad.ToExchange(); err == nil {
		t.Fatal("bad asset accepted")
	}
}

func TestExchangeJSONRoundTrip(t *testing.T) {
	orig := xrp.Exchange{
		Time:          time.Date(2019, 12, 14, 10, 0, 0, 0, time.UTC),
		LedgerIndex:   42,
		Base:          xrp.AssetKey{Currency: "BTC", Issuer: xrp.NewAddress("i")},
		Counter:       xrp.AssetKey{Currency: "XRP"},
		BaseValue:     1 * xrp.DropsPerXRP,
		CounterValue:  30_500 * xrp.DropsPerXRP,
		Maker:         xrp.NewAddress("m"),
		Taker:         xrp.NewAddress("t"),
		MakerSequence: 7,
	}
	back, err := ExchangeToJSON(orig).ToExchange()
	if err != nil {
		t.Fatal(err)
	}
	want := core.XRPExchange{
		Time:      orig.Time,
		Base:      core.XRPAssetKey{Currency: "BTC", Issuer: string(orig.Base.Issuer)},
		Counter:   core.XRPAssetKey{Currency: "XRP"},
		BaseValue: orig.BaseValue, CounterValue: orig.CounterValue,
		Maker: string(orig.Maker), MakerSequence: orig.MakerSequence,
	}
	if back != want {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back, want)
	}
}
