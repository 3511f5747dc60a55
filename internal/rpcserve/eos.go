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

// NewEOSServer builds the handler for a chain.
func NewEOSServer(c *eos.Chain) *EOSServer {
	s := &EOSServer{Chain: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/chain/get_info", s.getInfo)
	s.mux.HandleFunc("POST /v1/chain/get_block", s.getBlock)
	return s
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
