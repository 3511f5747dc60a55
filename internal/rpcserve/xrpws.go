package rpcserve

import (
	"encoding/json"
	"net/http"
	"strconv"

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
}

// xrpResponse is the envelope rippled wraps results in.
type xrpResponse struct {
	ID     any    `json:"id"`
	Status string `json:"status"`
	Type   string `json:"type"`
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
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
		if req.Command == "ledger" {
			err = s.writeLedger(conn, req)
		} else {
			err = conn.WriteJSON(s.handle(req))
		}
		if err != nil {
			return
		}
	}
}

// writeLedger answers one ledger command — the crawl hot path — from an
// arena ledger struct, a pooled converter and codec, a pooled buffer and a
// single frame write, allocating only the ledger's hashes, close time and
// one string of its transaction hashes (TestXRPWireLedgerSteadyStateAllocs).
// A ledger index it cannot resolve, or a request id the encoder does not
// render (a non-integral number, a bool, an object), gets invalidParams; a
// ledger it does not hold gets lgrNotFound.
func (s *XRPServer) writeLedger(conn *wsrpc.Conn, req xrpRequest) error {
	index, ok := s.resolveLedgerIndex(req.LedgerIndex)
	if !ok {
		return conn.WriteJSON(s.fail(req, "invalidParams"))
	}
	led := s.State.GetLedger(index)
	if led == nil {
		return conn.WriteJSON(s.fail(req, "lgrNotFound"))
	}
	lj := wire.GetXRPLedgerJSON()
	c := wire.GetCodec()
	buf := wire.GetBuffer()
	xrpWireLedger(led, req.Transactions && req.Expand, lj)
	out, ok := c.AppendXRPLedgerResponse(buf.B, req.ID, lj, led.Index)
	buf.B = out
	var err error
	if ok {
		err = conn.WriteMessage(wsrpc.OpText, buf.B)
	} else {
		err = conn.WriteJSON(s.fail(req, "invalidParams"))
	}
	wire.PutBuffer(buf)
	wire.PutCodec(c)
	wire.PutXRPLedgerJSON(lj)
	return err
}

// handle answers every command but ledger.
func (s *XRPServer) handle(req xrpRequest) xrpResponse {
	if req.Command != "server_info" {
		return s.fail(req, "unknownCmd")
	}
	head := s.State.HeadIndex()
	complete := "empty"
	if head > 0 {
		complete = "1-" + strconv.FormatInt(head, 10)
	}
	return xrpResponse{ID: req.ID, Type: "response", Status: "success", Result: map[string]any{
		"info": map[string]any{
			"build_version":    "repro-rippled-1.4",
			"complete_ledgers": complete,
			"validated_ledger": map[string]any{"seq": head},
			"server_state":     "full",
		},
	}}
}

func (s *XRPServer) fail(req xrpRequest, code string) xrpResponse {
	return xrpResponse{ID: req.ID, Type: "response", Status: "error", Error: code}
}

// resolveLedgerIndex accepts a number or one of the strings "validated",
// "closed" and "current". Numbers arrive as float64: the request is
// unmarshalled into any.
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
	default:
		return 0, false
	}
}
