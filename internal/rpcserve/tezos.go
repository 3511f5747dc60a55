package rpcserve

import (
	"net/http"
	"strconv"

	"repro/internal/tezos"
	"repro/internal/wire"
)

// TezosServer serves a Tezos chain over the octez-style REST RPC:
// GET /chains/main/blocks/head and GET /chains/main/blocks/{level}.
// The paper ran its own full node for Tezos because no public endpoint list
// exists; the simulator plays that node.
type TezosServer struct {
	Chain *tezos.Chain
	mux   *http.ServeMux
}

// NewTezosServer builds the handler for a chain.
func NewTezosServer(c *tezos.Chain) *TezosServer {
	s := &TezosServer{Chain: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /chains/main/blocks/head", s.head)
	s.mux.HandleFunc("GET /chains/main/blocks/{level}", s.block)
	return s
}

// ServeHTTP implements http.Handler.
func (s *TezosServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *TezosServer) head(w http.ResponseWriter, r *http.Request) {
	s.writeBlock(w, s.Chain.HeadLevel(), "chain is empty")
}

func (s *TezosServer) block(w http.ResponseWriter, r *http.Request) {
	level, err := strconv.ParseInt(r.PathValue("level"), 10, 64)
	if err != nil || level < 1 {
		httpError(w, http.StatusBadRequest, "level must be a positive integer")
		return
	}
	s.writeBlock(w, level, "block not found")
}

// writeBlock renders one block through the pooled wire codec — the block
// fetch hot path, free of reflection. The conversion allocates the block's
// hash, its predecessor's hash and its timestamp, and nothing per
// operation (TestTezosWireBlockSteadyStateAllocs).
func (s *TezosServer) writeBlock(w http.ResponseWriter, level int64, missing string) {
	blk := s.Chain.GetBlock(level)
	if blk == nil {
		httpError(w, http.StatusNotFound, missing)
		return
	}
	jb := wire.GetTezosBlockJSON()
	tezosWireBlock(blk, jb)
	c := wire.GetCodec()
	buf := wire.GetBuffer()
	buf.B = c.AppendTezosBlock(buf.B, jb)
	writeRaw(w, buf)
	wire.PutBuffer(buf)
	wire.PutCodec(c)
	wire.PutTezosBlockJSON(jb)
}
