// Package explorer reproduces the two auxiliary data services the paper
// leaned on for XRP: the XRP Scan ledger explorer (account usernames and
// parent accounts, used to cluster exchange-controlled addresses) and the
// Ripple Data API's exchange_rates endpoint (used to decide whether an IOU
// token carries any value, Figure 11).
package explorer

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/xrp"
)

// AccountInfo is the metadata XRP Scan exposes per account.
type AccountInfo struct {
	Address  xrp.Address `json:"account"`
	Username string      `json:"username,omitempty"`
	Parent   xrp.Address `json:"parent,omitempty"`
	// ParentUsername is resolved at query time for convenience.
	ParentUsername string `json:"parent_username,omitempty"`
}

// Directory maps addresses to registered usernames (Binance, Huobi, Ripple…)
// and resolves parent relationships from the ledger itself.
type Directory struct {
	mu        sync.RWMutex
	usernames map[xrp.Address]string
	state     *xrp.State
}

// NewDirectory builds a directory over ledger state.
func NewDirectory(state *xrp.State) *Directory {
	return &Directory{usernames: make(map[xrp.Address]string), state: state}
}

// Register assigns a username to an address, as exchanges do on XRP Scan.
func (d *Directory) Register(addr xrp.Address, username string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.usernames[addr] = username
}

// Username returns the registered username, or "".
func (d *Directory) Username(addr xrp.Address) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.usernames[addr]
}

// Lookup returns the full metadata for an address.
func (d *Directory) Lookup(addr xrp.Address) AccountInfo {
	info := AccountInfo{Address: addr, Username: d.Username(addr)}
	if acct := d.state.GetAccount(addr); acct != nil && acct.Parent != "" {
		info.Parent = acct.Parent
		info.ParentUsername = d.Username(acct.Parent)
	}
	return info
}

// ClusterName resolves the paper's clustering rule: use the account's own
// username; otherwise the parent's username plus a "-- descendant" suffix;
// otherwise the bare address.
func (d *Directory) ClusterName(addr xrp.Address) string {
	info := d.Lookup(addr)
	if info.Username != "" {
		return info.Username
	}
	if info.ParentUsername != "" {
		return info.ParentUsername + " -- descendant"
	}
	return string(addr)
}

// RatePoint is one observed trade price.
type RatePoint struct {
	Time time.Time
	Rate float64 // counter units per base unit
}

// RateOracle aggregates DEX fills into per-pair rate series — the simulated
// equivalent of https://data.ripple.com/v2/exchange_rates.
type RateOracle struct {
	state *xrp.State
}

// NewRateOracle builds an oracle over ledger state.
func NewRateOracle(state *xrp.State) *RateOracle { return &RateOracle{state: state} }

// Series returns the chronological rate points for base sold against
// counter.
func (o *RateOracle) Series(base, counter xrp.AssetKey) []RatePoint {
	var pts []RatePoint
	for _, e := range o.state.Exchanges() {
		switch {
		case e.Base == base && e.Counter == counter:
			pts = append(pts, RatePoint{Time: e.Time, Rate: e.Rate()})
		case e.Base == counter && e.Counter == base && e.CounterValue != 0:
			pts = append(pts, RatePoint{Time: e.Time, Rate: float64(e.BaseValue) / float64(e.CounterValue)})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Time.Before(pts[j].Time) })
	return pts
}

// AverageRate returns the mean traded rate of base against counter within
// [from, to). The paper valued every IOU by exactly this lookup: tokens with
// no positive XRP rate are classified as valueless.
func (o *RateOracle) AverageRate(base, counter xrp.AssetKey, from, to time.Time) float64 {
	var sum float64
	var n int
	for _, p := range o.Series(base, counter) {
		if p.Time.Before(from) || !p.Time.Before(to) {
			continue
		}
		sum += p.Rate
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// HasPositiveRate reports whether base ever traded against counter at a
// positive rate within the window.
func (o *RateOracle) HasPositiveRate(base, counter xrp.AssetKey, from, to time.Time) bool {
	for _, p := range o.Series(base, counter) {
		if p.Time.Before(from) || !p.Time.Before(to) {
			continue
		}
		if p.Rate > 0 {
			return true
		}
	}
	return false
}

// Server exposes the directory and oracle over HTTP, mimicking the endpoint
// shapes of XRP Scan and the Ripple Data API.
type Server struct {
	Dir    *Directory
	Oracle *RateOracle
	mux    *http.ServeMux
}

// NewServer builds the HTTP facade.
func NewServer(dir *Directory, oracle *RateOracle) *Server {
	s := &Server{Dir: dir, Oracle: oracle, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /v2/accounts/{address}", s.account)
	s.mux.HandleFunc("GET /v2/exchange_rates/{base}/{counter}", s.rate)
	s.mux.HandleFunc("GET /v2/exchanges", s.exchanges)
	return s
}

// ExchangeJSON is the wire shape of one DEX fill, close to the Ripple Data
// API's exchange records.
type ExchangeJSON struct {
	Time          string `json:"executed_time"`
	LedgerIndex   int64  `json:"ledger_index"`
	Base          string `json:"base"`
	Counter       string `json:"counter"`
	BaseValue     int64  `json:"base_value"`
	CounterValue  int64  `json:"counter_value"`
	Maker         string `json:"maker"`
	Taker         string `json:"taker"`
	MakerSequence uint32 `json:"maker_sequence"`
}

// ExchangeToJSON converts a ledger fill to its wire shape.
func ExchangeToJSON(e xrp.Exchange) ExchangeJSON {
	return ExchangeJSON{
		Time:          e.Time.UTC().Format(time.RFC3339),
		LedgerIndex:   e.LedgerIndex,
		Base:          assetToString(e.Base),
		Counter:       assetToString(e.Counter),
		BaseValue:     e.BaseValue,
		CounterValue:  e.CounterValue,
		Maker:         string(e.Maker),
		Taker:         string(e.Taker),
		MakerSequence: e.MakerSequence,
	}
}

// ToExchange converts to the measurement side's record of a fill.
func (j ExchangeJSON) ToExchange() (core.XRPExchange, error) {
	ts, err := time.Parse(time.RFC3339, j.Time)
	if err != nil {
		return core.XRPExchange{}, fmt.Errorf("explorer: bad exchange time %q: %w", j.Time, err)
	}
	base, err := parseAssetKey(j.Base)
	if err != nil {
		return core.XRPExchange{}, err
	}
	counter, err := parseAssetKey(j.Counter)
	if err != nil {
		return core.XRPExchange{}, err
	}
	return core.XRPExchange{
		Time: ts, LedgerIndex: j.LedgerIndex,
		Base:      core.XRPAssetKey{Currency: base.Currency, Issuer: string(base.Issuer)},
		Counter:   core.XRPAssetKey{Currency: counter.Currency, Issuer: string(counter.Issuer)},
		BaseValue: j.BaseValue, CounterValue: j.CounterValue,
		Maker: j.Maker, Taker: j.Taker,
		MakerSequence: j.MakerSequence,
	}, nil
}

func assetToString(k xrp.AssetKey) string {
	if k.Issuer == "" {
		return k.Currency
	}
	return k.Currency + "+" + string(k.Issuer)
}

func (s *Server) exchanges(w http.ResponseWriter, r *http.Request) {
	all := s.Oracle.state.Exchanges()
	out := make([]ExchangeJSON, 0, len(all))
	for _, e := range all {
		out = append(out, ExchangeToJSON(e))
	}
	writeJSON(w, out)
}

// FetchExchanges retrieves every exchange record from an explorer endpoint,
// the way the paper pulled trade data from data.ripple.com.
func FetchExchanges(baseURL string) ([]core.XRPExchange, error) {
	resp, err := http.Get(baseURL + "/v2/exchanges")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("explorer: exchanges endpoint returned %s", resp.Status)
	}
	var rows []ExchangeJSON
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, fmt.Errorf("explorer: decoding exchanges: %w", err)
	}
	out := make([]core.XRPExchange, 0, len(rows))
	for _, row := range rows {
		e, err := row.ToExchange()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) account(w http.ResponseWriter, r *http.Request) {
	addr := xrp.Address(r.PathValue("address"))
	writeJSON(w, s.Dir.Lookup(addr))
}

// rate handles /v2/exchange_rates/{base}/{counter}?period=30day&date=…
// Base and counter are "CUR+ISSUER" pairs, or "XRP".
func (s *Server) rate(w http.ResponseWriter, r *http.Request) {
	base, err := parseAssetKey(r.PathValue("base"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	counter, err := parseAssetKey(r.PathValue("counter"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	to := time.Now().UTC()
	if d := r.URL.Query().Get("date"); d != "" {
		parsed, err := time.Parse(time.RFC3339, d)
		if err != nil {
			http.Error(w, "bad date", http.StatusBadRequest)
			return
		}
		to = parsed
	}
	window := 30 * 24 * time.Hour
	if p := r.URL.Query().Get("period"); p == "day" {
		window = 24 * time.Hour
	}
	rate := s.Oracle.AverageRate(base, counter, to.Add(-window), to)
	writeJSON(w, map[string]any{"rate": rate, "base": base.String(), "counter": counter.String()})
}

func parseAssetKey(s string) (xrp.AssetKey, error) {
	if s == "XRP" {
		return xrp.AssetKey{Currency: "XRP"}, nil
	}
	for i := 0; i < len(s); i++ {
		if s[i] == '+' {
			return xrp.AssetKey{Currency: s[:i], Issuer: xrp.Address(s[i+1:])}, nil
		}
	}
	return xrp.AssetKey{}, fmt.Errorf("explorer: asset %q must be XRP or CUR+ISSUER", s)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
