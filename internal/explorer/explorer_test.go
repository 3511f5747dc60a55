package explorer

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xrp"
)

// fixture builds a ledger with a registered exchange, a descendant, and a
// few BTC/XRP trades at known rates.
func fixture(t *testing.T) (*xrp.State, *Directory, *RateOracle, xrp.Address, xrp.Address) {
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
	return st, dir, NewRateOracle(st), exchange, child
}

func TestDirectoryClustering(t *testing.T) {
	_, dir, _, exchange, child := fixture(t)
	if got := dir.ClusterName(exchange); got != "BigExchange" {
		t.Fatalf("exchange cluster = %q", got)
	}
	// Descendant resolution via the ledger's parent pointer.
	if got := dir.ClusterName(child); got != "BigExchange -- descendant" {
		t.Fatalf("child cluster = %q", got)
	}
	// Unknown accounts fall back to the raw address.
	anon := xrp.NewAddress("anon")
	if got := dir.ClusterName(anon); got != string(anon) {
		t.Fatalf("anon cluster = %q", got)
	}
}

func TestDirectoryLookup(t *testing.T) {
	_, dir, _, exchange, child := fixture(t)
	info := dir.Lookup(child)
	if info.Parent != exchange || info.ParentUsername != "BigExchange" {
		t.Fatalf("lookup: %+v", info)
	}
	if dir.Username(child) != "" {
		t.Fatal("child should have no username of its own")
	}
}

func TestRateOracle(t *testing.T) {
	st, _, oracle, _, _ := fixture(t)
	btc := xrp.AssetKey{Currency: "BTC", Issuer: xrp.NewAddress("btc-gateway")}
	xrpKey := xrp.AssetKey{Currency: "XRP"}
	pts := oracle.Series(btc, xrpKey)
	if len(pts) != 1 {
		t.Fatalf("series: %d points", len(pts))
	}
	if pts[0].Rate < 29_999 || pts[0].Rate > 30_001 {
		t.Fatalf("rate = %f", pts[0].Rate)
	}
	from := st.Now().Add(-24 * time.Hour)
	to := st.Now().Add(24 * time.Hour)
	if avg := oracle.AverageRate(btc, xrpKey, from, to); avg < 29_999 || avg > 30_001 {
		t.Fatalf("avg = %f", avg)
	}
	if !oracle.HasPositiveRate(btc, xrpKey, from, to) {
		t.Fatal("positive rate not detected")
	}
	// An untraded asset has no rate.
	junk := xrp.AssetKey{Currency: "JNK", Issuer: xrp.NewAddress("nobody")}
	if oracle.AverageRate(junk, xrpKey, from, to) != 0 {
		t.Fatal("junk asset has a rate")
	}
	if oracle.HasPositiveRate(junk, xrpKey, from, to) {
		t.Fatal("junk asset claims positive rate")
	}
}

func TestServerEndpoints(t *testing.T) {
	_, dir, oracle, exchange, child := fixture(t)
	srv := httptest.NewServer(NewServer(dir, oracle))
	defer srv.Close()

	// Account metadata.
	resp, err := http.Get(srv.URL + "/v2/accounts/" + string(child))
	if err != nil {
		t.Fatal(err)
	}
	var info AccountInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if info.Parent != exchange || info.ParentUsername != "BigExchange" {
		t.Fatalf("account info: %+v", info)
	}

	// Exchange rate, Data-API style.
	gw := xrp.NewAddress("btc-gateway")
	// The fixture trade executes around October 1; query a window that
	// covers it, the way the paper queried date=2020-01-01 for December.
	url := srv.URL + "/v2/exchange_rates/BTC+" + string(gw) + "/XRP?date=2019-10-05T00:00:00Z&period=30day"
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var rate struct {
		Rate float64 `json:"rate"`
	}
	json.NewDecoder(resp.Body).Decode(&rate)
	resp.Body.Close()
	if rate.Rate < 29_999 || rate.Rate > 30_001 {
		t.Fatalf("rate endpoint: %f", rate.Rate)
	}

	// Bad asset spec.
	resp, _ = http.Get(srv.URL + "/v2/exchange_rates/NOPLUS/XRP")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad asset -> %d", resp.StatusCode)
	}

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
		Time: orig.Time, LedgerIndex: orig.LedgerIndex,
		Base:      core.XRPAssetKey{Currency: "BTC", Issuer: string(orig.Base.Issuer)},
		Counter:   core.XRPAssetKey{Currency: "XRP"},
		BaseValue: orig.BaseValue, CounterValue: orig.CounterValue,
		Maker: string(orig.Maker), Taker: string(orig.Taker),
		MakerSequence: orig.MakerSequence,
	}
	if back != want {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back, want)
	}
}
