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

// NewTezosServer builds the handler for a chain. Beyond block fetching it
// exposes the octez voting endpoints the paper's §4.2 analysis used:
// current_period_kind, current_proposal and ballots.
func NewTezosServer(c *tezos.Chain) *TezosServer {
	s := &TezosServer{Chain: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /chains/main/blocks/head", s.head)
	s.mux.HandleFunc("GET /chains/main/blocks/{level}", s.block)
	s.mux.HandleFunc("GET /chains/main/blocks/head/votes/current_period_kind", s.periodKind)
	s.mux.HandleFunc("GET /chains/main/blocks/head/votes/current_proposal", s.currentProposal)
	s.mux.HandleFunc("GET /chains/main/blocks/head/votes/ballots", s.ballots)
	s.mux.HandleFunc("GET /chains/main/blocks/head/votes/periods", s.periods)
	return s
}

func (s *TezosServer) periodKind(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, string(s.Chain.Governance().Period()))
}

func (s *TezosServer) currentProposal(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Chain.Governance().CurrentProposal())
}

func (s *TezosServer) ballots(w http.ResponseWriter, r *http.Request) {
	yay, nay, pass := s.Chain.Governance().Tallies()
	writeJSON(w, map[string]int64{"yay": yay, "nay": nay, "pass": pass})
}

// periods returns the completed period records (a simulator convenience the
// paper assembled from historical snapshots).
func (s *TezosServer) periods(w http.ResponseWriter, r *http.Request) {
	recs := s.Chain.Governance().Periods()
	out := make([]map[string]any, 0, len(recs))
	for _, rec := range recs {
		out = append(out, map[string]any{
			"kind":          string(rec.Kind),
			"start_level":   rec.StartLevel,
			"end_level":     rec.EndLevel,
			"proposal":      rec.Proposal,
			"yay":           rec.Yay,
			"nay":           rec.Nay,
			"pass":          rec.Pass,
			"participation": rec.Participation,
			"outcome":       rec.Outcome,
		})
	}
	writeJSON(w, out)
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
// fetch hot path, free of reflection and per-request garbage.
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
