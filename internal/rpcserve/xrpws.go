package rpcserve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/wire"
	"repro/internal/wsrpc"
	"repro/internal/xrp"
)

// XRPServer serves an XRP ledger over a rippled-style WebSocket API. The
// paper collected XRP data through the community full-history WebSocket
// cluster using the "ledger" command; this server speaks the same protocol
// over the repo's own RFC 6455 implementation.
type XRPServer struct {
	State *xrp.State
}

// NewXRPServer builds the handler.
func NewXRPServer(s *xrp.State) *XRPServer { return &XRPServer{State: s} }

// xrpRequest is one WebSocket API command.
type xrpRequest struct {
	ID           any    `json:"id"`
	Command      string `json:"command"`
	LedgerIndex  any    `json:"ledger_index,omitempty"`
	Transactions bool   `json:"transactions,omitempty"`
	Expand       bool   `json:"expand,omitempty"`
	// Account is used by account_info and account_lines.
	Account string `json:"account,omitempty"`
	// TakerGets/TakerPays identify a book for book_offers, as
	// "CUR" or "CUR+ISSUER" strings.
	TakerGets string `json:"taker_gets,omitempty"`
	TakerPays string `json:"taker_pays,omitempty"`
	Limit     int    `json:"limit,omitempty"`
}

// xrpResponse is the envelope rippled wraps results in.
type xrpResponse struct {
	ID     any    `json:"id"`
	Status string `json:"status"`
	Type   string `json:"type"`
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

func amountJSON(a xrp.Amount) *wire.XRPAmountJSON {
	if a.Value == 0 && a.Currency == "" {
		return nil
	}
	return &wire.XRPAmountJSON{Currency: a.Currency, Issuer: string(a.Issuer), Value: a.Value}
}

// XRPLedgerToJSON converts a ledger (with transactions when expand is set).
func XRPLedgerToJSON(l *xrp.Ledger, expand bool) wire.XRPLedgerJSON {
	var out wire.XRPLedgerJSON
	xrpWireLedger(l, expand, &out)
	return out
}

// ServeHTTP upgrades to WebSocket and answers commands until the peer
// disconnects.
func (s *XRPServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	conn, err := wsrpc.Upgrade(w, r)
	if err != nil {
		return
	}
	defer conn.Close()
	var msg []byte
	for {
		var err error
		if _, msg, err = conn.ReadMessageInto(msg[:0]); err != nil {
			return
		}
		var req xrpRequest
		if err := json.Unmarshal(msg, &req); err != nil {
			return
		}
		// The ledger command is the crawl hot path: render it through the
		// pooled wire codec instead of reflect-marshalling the envelope.
		if req.Command == "ledger" {
			handled, err := s.writeLedger(conn, req)
			if err != nil {
				return
			}
			if handled {
				continue
			}
		}
		resp := s.handle(req)
		if err := conn.WriteJSON(resp); err != nil {
			return
		}
	}
}

// writeLedger answers one ledger command from an arena ledger struct, a
// pooled converter and codec, a pooled buffer and a single frame write,
// allocating only the ledger's hashes, close time and one string of its
// transaction hashes (TestXRPWireLedgerSteadyStateAllocs). It reports
// handled=false (and no error) when the request needs the reflect path —
// error envelopes or an id shape the fast encoder does not render.
func (s *XRPServer) writeLedger(conn *wsrpc.Conn, req xrpRequest) (handled bool, err error) {
	index, ok := s.resolveLedgerIndex(req.LedgerIndex)
	if !ok {
		return false, nil
	}
	led := s.State.GetLedger(index)
	if led == nil {
		return false, nil
	}
	lj := wire.GetXRPLedgerJSON()
	c := wire.GetCodec()
	buf := wire.GetBuffer()
	xrpWireLedger(led, req.Transactions && req.Expand, lj)
	out, ok := c.AppendXRPLedgerResponse(buf.B, req.ID, lj, led.Index)
	buf.B = out
	if ok {
		handled = true
		err = conn.WriteMessage(wsrpc.OpText, buf.B)
	}
	wire.PutBuffer(buf)
	wire.PutCodec(c)
	wire.PutXRPLedgerJSON(lj)
	return handled, err
}

func (s *XRPServer) handle(req xrpRequest) xrpResponse {
	resp := xrpResponse{ID: req.ID, Type: "response", Status: "success"}
	switch req.Command {
	case "ledger":
		index, ok := s.resolveLedgerIndex(req.LedgerIndex)
		if !ok {
			return s.fail(req, "invalidParams")
		}
		led := s.State.GetLedger(index)
		if led == nil {
			return s.fail(req, "lgrNotFound")
		}
		resp.Result = map[string]any{
			"ledger":       XRPLedgerToJSON(led, req.Transactions && req.Expand),
			"ledger_index": led.Index,
			"validated":    true,
		}
	case "server_info":
		resp.Result = map[string]any{
			"info": map[string]any{
				"build_version":    "repro-rippled-1.4",
				"complete_ledgers": completeRange(s.State.HeadIndex()),
				"validated_ledger": map[string]any{"seq": s.State.HeadIndex()},
				"server_state":     "full",
			},
		}
	case "account_info":
		acct := s.State.GetAccount(xrp.Address(req.Account))
		if acct == nil {
			return s.fail(req, "actNotFound")
		}
		resp.Result = map[string]any{
			"account_data": map[string]any{
				"Account":     string(acct.Address),
				"Balance":     acct.Balance,
				"Sequence":    acct.Sequence,
				"OwnerCount":  acct.OwnerCount,
				"Parent":      string(acct.Parent),
				"RequireDest": acct.RequireDestTag,
			},
			"ledger_index": s.State.HeadIndex(),
			"validated":    true,
		}
	case "account_lines":
		acct := s.State.GetAccount(xrp.Address(req.Account))
		if acct == nil {
			return s.fail(req, "actNotFound")
		}
		lines := s.State.LinesOf(xrp.Address(req.Account))
		rows := make([]map[string]any, 0, len(lines))
		for _, l := range lines {
			rows = append(rows, map[string]any{
				"account":  string(l.Issuer),
				"currency": l.Currency,
				"balance":  l.Balance,
				"limit":    l.Limit,
			})
		}
		resp.Result = map[string]any{"account": req.Account, "lines": rows}
	case "book_offers":
		gets, err := parseBookAsset(req.TakerGets)
		if err != nil {
			return s.fail(req, "invalidParams")
		}
		pays, err := parseBookAsset(req.TakerPays)
		if err != nil {
			return s.fail(req, "invalidParams")
		}
		offers := s.State.BookOffers(gets, pays)
		limit := req.Limit
		if limit <= 0 || limit > len(offers) {
			limit = len(offers)
		}
		rows := make([]map[string]any, 0, limit)
		for _, o := range offers[:limit] {
			rows = append(rows, map[string]any{
				"Account":    string(o.Owner),
				"Sequence":   o.Sequence,
				"TakerGets":  amountJSON(o.TakerGets),
				"TakerPays":  amountJSON(o.TakerPays),
				"quality":    o.Quality,
				"filled_any": o.Filled,
			})
		}
		resp.Result = map[string]any{"offers": rows}
	default:
		return s.fail(req, "unknownCmd")
	}
	return resp
}

// parseBookAsset parses "XRP" or "CUR+ISSUER".
func parseBookAsset(sv string) (xrp.AssetKey, error) {
	if sv == "" {
		return xrp.AssetKey{}, fmt.Errorf("rpcserve: empty asset")
	}
	if sv == "XRP" {
		return xrp.AssetKey{Currency: "XRP"}, nil
	}
	for i := 0; i < len(sv); i++ {
		if sv[i] == '+' {
			return xrp.AssetKey{Currency: sv[:i], Issuer: xrp.Address(sv[i+1:])}, nil
		}
	}
	return xrp.AssetKey{}, fmt.Errorf("rpcserve: asset %q must be XRP or CUR+ISSUER", sv)
}

func completeRange(head int64) string {
	if head == 0 {
		return "empty"
	}
	return "1-" + json.Number(itoa(head)).String()
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func (s *XRPServer) fail(req xrpRequest, code string) xrpResponse {
	return xrpResponse{ID: req.ID, Type: "response", Status: "error", Error: code}
}

// resolveLedgerIndex accepts a number or the string "validated".
func (s *XRPServer) resolveLedgerIndex(v any) (int64, bool) {
	switch x := v.(type) {
	case nil:
		return s.State.HeadIndex(), true
	case string:
		if x == "validated" || x == "closed" || x == "current" {
			return s.State.HeadIndex(), true
		}
		return 0, false
	case float64:
		return int64(x), true
	case json.Number:
		n, err := x.Int64()
		return n, err == nil
	default:
		return 0, false
	}
}
