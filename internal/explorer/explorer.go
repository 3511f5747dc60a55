// Package explorer reproduces the two auxiliary data services the paper
// leaned on for XRP: the XRP Scan ledger explorer (account usernames and
// parent accounts, used to cluster exchange-controlled addresses) and the
// Ripple Data API's exchange records (used to decide whether an IOU token
// carries any value, Figure 11).
package explorer

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/xrp"
)

// AccountInfo is the metadata XRP Scan exposes per account.
type AccountInfo struct {
	Address  xrp.Address
	Username string
	Parent   xrp.Address
	// ParentUsername is resolved at query time for convenience.
	ParentUsername string
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
// otherwise the bare address. With Activation it makes the directory the
// core.Directory the figure sections read.
func (d *Directory) ClusterName(addr string) string {
	info := d.Lookup(xrp.Address(addr))
	if info.Username != "" {
		return info.Username
	}
	if info.ParentUsername != "" {
		return info.ParentUsername + " -- descendant"
	}
	return addr
}

// Activation returns the account that activated addr and when, as the
// ledger recorded it; parent is "" for an account it never activated.
func (d *Directory) Activation(addr string) (parent string, at time.Time) {
	if acct := d.state.GetAccount(xrp.Address(addr)); acct != nil && acct.Parent != "" {
		return string(acct.Parent), acct.Activated
	}
	return "", time.Time{}
}

// Server serves the ledger's DEX fills in the Ripple Data API's shape, the
// one endpoint the measurement side reads from an explorer.
type Server struct {
	state *xrp.State
	mux   *http.ServeMux
}

// NewServer builds the HTTP facade over the directory's ledger.
func NewServer(dir *Directory) *Server {
	s := &Server{state: dir.state, mux: http.NewServeMux()}
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
	base, err := assetKey(j.Base)
	if err != nil {
		return core.XRPExchange{}, err
	}
	counter, err := assetKey(j.Counter)
	if err != nil {
		return core.XRPExchange{}, err
	}
	return core.XRPExchange{
		Time:      ts,
		Base:      base,
		Counter:   counter,
		BaseValue: j.BaseValue, CounterValue: j.CounterValue,
		Maker: j.Maker, MakerSequence: j.MakerSequence,
	}, nil
}

// assetKey parses "XRP" or "CUR+ISSUER", the shape assetToString writes.
func assetKey(s string) (core.XRPAssetKey, error) {
	if s == "XRP" {
		return core.XRPAssetKey{Currency: "XRP"}, nil
	}
	cur, issuer, ok := strings.Cut(s, "+")
	if !ok {
		return core.XRPAssetKey{}, fmt.Errorf("explorer: asset %q must be XRP or CUR+ISSUER", s)
	}
	return core.XRPAssetKey{Currency: cur, Issuer: issuer}, nil
}

func assetToString(k xrp.AssetKey) string {
	if k.Issuer == "" {
		return k.Currency
	}
	return k.Currency + "+" + string(k.Issuer)
}

func (s *Server) exchanges(w http.ResponseWriter, r *http.Request) {
	all := s.state.Exchanges()
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

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
