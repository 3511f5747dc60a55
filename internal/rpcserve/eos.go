package rpcserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/eos"
	"repro/internal/wire"
)

// EOSServer serves an EOS chain over the nodeos-style RPC the paper's
// collector used: POST /v1/chain/get_info and POST /v1/chain/get_block.
type EOSServer struct {
	Chain *eos.Chain
	mux   *http.ServeMux
}

// NewEOSServer builds the handler for a chain. get_account and
// get_currency_balance mirror the nodeos endpoints the paper's RPC guide
// references for account-level lookups.
func NewEOSServer(c *eos.Chain) *EOSServer {
	s := &EOSServer{Chain: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/chain/get_info", s.getInfo)
	s.mux.HandleFunc("POST /v1/chain/get_block", s.getBlock)
	s.mux.HandleFunc("POST /v1/chain/get_account", s.getAccount)
	s.mux.HandleFunc("POST /v1/chain/get_currency_balance", s.getCurrencyBalance)
	return s
}

type eosGetAccountRequest struct {
	AccountName string `json:"account_name"`
}

func (s *EOSServer) getAccount(w http.ResponseWriter, r *http.Request) {
	var req eosGetAccountRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body")
		return
	}
	name, err := eos.ParseName(req.AccountName)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	acct := s.Chain.GetAccount(name)
	if acct == nil {
		httpError(w, http.StatusNotFound, "unknown account")
		return
	}
	writeJSON(w, map[string]any{
		"account_name": acct.Name.String(),
		"created":      acct.Created.UTC().Format(time.RFC3339),
		"privileged":   acct.Privileged,
		"creator":      acct.Creator.String(),
		"cpu_weight":   acct.Resources.CPUStaked,
		"net_weight":   acct.Resources.NETStaked,
		"ram_quota":    acct.Resources.RAMBytes,
		"ram_usage":    acct.Resources.RAMUsed,
	})
}

type eosGetBalanceRequest struct {
	Code    string `json:"code"`
	Account string `json:"account"`
	Symbol  string `json:"symbol"`
}

func (s *EOSServer) getCurrencyBalance(w http.ResponseWriter, r *http.Request) {
	var req eosGetBalanceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body")
		return
	}
	code, err := eos.ParseName(req.Code)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad code")
		return
	}
	holder, err := eos.ParseName(req.Account)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad account")
		return
	}
	bal := s.Chain.Tokens().Balance(code, holder, req.Symbol)
	writeJSON(w, []string{bal.String()})
}

// ServeHTTP implements http.Handler.
func (s *EOSServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// eosInfoResponse mirrors the subset of get_info the collector needs.
type eosInfoResponse struct {
	ChainID          string `json:"chain_id"`
	HeadBlockNum     uint32 `json:"head_block_num"`
	HeadBlockTime    string `json:"head_block_time"`
	ServerVersion    string `json:"server_version_string"`
	BlockCPULimit    int64  `json:"block_cpu_limit"`
	CongestionStatus bool   `json:"network_congested"` // simulator extension
}

func (s *EOSServer) getInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, eosInfoResponse{
		ChainID:          "repro-eos-simnet",
		HeadBlockNum:     s.Chain.HeadNum(),
		HeadBlockTime:    s.Chain.Now().UTC().Format(time.RFC3339),
		ServerVersion:    "repro-nodeos-2.0",
		BlockCPULimit:    200_000,
		CongestionStatus: s.Chain.Resources().Congested(),
	})
}

type eosGetBlockRequest struct {
	BlockNumOrID json.Number `json:"block_num_or_id"`
}

func (s *EOSServer) getBlock(w http.ResponseWriter, r *http.Request) {
	var req eosGetBlockRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	num, err := req.BlockNumOrID.Int64()
	if err != nil || num < 1 {
		httpError(w, http.StatusBadRequest, "block_num_or_id must be a positive block number")
		return
	}
	blk := s.Chain.GetBlock(uint32(num))
	if blk == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("block %d not found", num))
		return
	}
	// The get_block hot path: convert into an arena block through a pooled
	// converter and hand-encode from pooled buffers, with no reflection.
	// Past decoding the request, it allocates only what the block renders
	// uniquely: its id, its previous id, its timestamp and one string of
	// its transaction ids (TestEOSWireBlockSteadyStateAllocs).
	jb := wire.GetEOSBlockJSON()
	eosWireBlock(blk, jb)
	c := wire.GetCodec()
	buf := wire.GetBuffer()
	buf.B = c.AppendEOSBlock(buf.B, jb)
	writeRaw(w, buf)
	wire.PutBuffer(buf)
	wire.PutCodec(c)
	wire.PutEOSBlockJSON(jb)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Connection-level failure; headers are already gone.
		return
	}
}

// writeRaw sends a pooled buffer of pre-encoded JSON with the trailing
// newline writeJSON's json.Encoder always appended, so both paths stay
// byte-compatible. The buffer remains caller-owned.
func writeRaw(w http.ResponseWriter, buf *wire.Buffer) {
	buf.B = append(buf.B, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.B)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{"code": code, "error": msg})
}
