package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// NewHandler builds the serving API over a publisher. Every endpoint reads
// exactly one snapshot (a single atomic load) and answers entirely from it,
// so responses are internally consistent even while epochs keep landing,
// and every response carries the staleness contract in headers:
// X-Serve-Epoch, X-Serve-Published (RFC3339Nano) and X-Serve-Age-Ms.
//
//	GET /healthz                      liveness
//	GET /readyz                       readiness: 503 until the first epoch
//	GET /v1/status                    epoch, staleness, per-chain progress
//	GET /v1/chains                    registered chain names
//	GET /v1/summary/{chain}           one chain's summary as JSON
//	GET /v1/figures                   all chains' figures (text, sorted)
//	GET /v1/figures/{chain}           one chain's figures (text)
//	GET /v1/percentiles/{chain}?p=..  bucket-total percentiles
func NewHandler(p *Publisher) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		stamp(w, p)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	// Readiness is distinct from liveness: a server that accepted its
	// socket but has not published epoch 1 yet would answer /v1/* from the
	// empty placeholder snapshot — well-formed but vacuous. Load balancers
	// and smoke tests gate on /readyz so traffic only arrives once real
	// figures are behind it.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		snap := stamp(w, p)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if snap.Epoch == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "no snapshot published yet")
			return
		}
		fmt.Fprintln(w, "ready")
	})

	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		snap := stamp(w, p)
		chains := make(map[string]chainStatusJSON, len(snap.Chains))
		for name, st := range snap.Chains {
			chains[name] = chainStatusJSON{
				Blocks:       st.Summary.Blocks,
				Transactions: st.Summary.Transactions,
				Drained:      st.Drained,
			}
		}
		writeJSON(w, statusResponse{
			epochJSON: epochOf(snap, p.now()),
			Drained:   snap.Drained,
			Chains:    chains,
		})
	})

	mux.HandleFunc("GET /v1/chains", func(w http.ResponseWriter, r *http.Request) {
		snap := stamp(w, p)
		writeJSON(w, chainsResponse{epochJSON: epochOf(snap, p.now()), Chains: snap.Names()})
	})

	mux.HandleFunc("GET /v1/summary/{chain}", func(w http.ResponseWriter, r *http.Request) {
		snap := stamp(w, p)
		st, ok := snap.Chains[r.PathValue("chain")]
		if !ok {
			writeError(w, http.StatusNotFound, "unknown chain %q", r.PathValue("chain"))
			return
		}
		resp := summaryResponse{
			epochJSON:    epochOf(snap, p.now()),
			Chain:        st.Summary.Chain,
			Blocks:       st.Summary.Blocks,
			Transactions: st.Summary.Transactions,
			TypeCounts:   st.Summary.TypeCounts,
			Buckets:      len(st.Summary.BucketTotals),
			Notes:        st.Summary.Notes,
			Drained:      st.Drained,
		}
		if !st.Summary.First.IsZero() {
			first, last := st.Summary.First.UTC(), st.Summary.Last.UTC()
			resp.First, resp.Last = &first, &last
		}
		writeJSON(w, resp)
	})

	mux.HandleFunc("GET /v1/figures", func(w http.ResponseWriter, r *http.Request) {
		snap := stamp(w, p)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, snap.RenderFigures())
	})

	mux.HandleFunc("GET /v1/figures/{chain}", func(w http.ResponseWriter, r *http.Request) {
		snap := stamp(w, p)
		st, ok := snap.Chains[r.PathValue("chain")]
		if !ok {
			writeError(w, http.StatusNotFound, "unknown chain %q", r.PathValue("chain"))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, st.Figures)
	})

	mux.HandleFunc("GET /v1/percentiles/{chain}", func(w http.ResponseWriter, r *http.Request) {
		snap := stamp(w, p)
		st, ok := snap.Chains[r.PathValue("chain")]
		if !ok {
			writeError(w, http.StatusNotFound, "unknown chain %q", r.PathValue("chain"))
			return
		}
		ps, err := parsePercentiles(r.URL.Query().Get("p"))
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		vals := make([]float64, len(st.Summary.BucketTotals))
		for i, v := range st.Summary.BucketTotals {
			vals[i] = float64(v)
		}
		sel := stats.GetSelector()
		sel.Load(vals)
		out := make([]percentileJSON, len(ps))
		for i, q := range ps {
			out[i] = percentileJSON{P: q, Value: sel.Percentile(q)}
		}
		stats.PutSelector(sel)
		writeJSON(w, percentilesResponse{
			epochJSON:   epochOf(snap, p.now()),
			Chain:       st.Summary.Chain,
			Buckets:     len(vals),
			Percentiles: out,
		})
	})

	return mux
}

// stamp loads the one snapshot the whole request will answer from and
// writes the staleness headers.
func stamp(w http.ResponseWriter, p *Publisher) *Snapshot {
	snap := p.Current()
	h := w.Header()
	h.Set("X-Serve-Epoch", strconv.FormatUint(snap.Epoch, 10))
	h.Set("X-Serve-Published", snap.PublishedAt.UTC().Format(time.RFC3339Nano))
	h.Set("X-Serve-Age-Ms", strconv.FormatInt(snap.Age(p.now()).Milliseconds(), 10))
	return snap
}

// epochJSON is the staleness metadata embedded in every JSON body.
type epochJSON struct {
	Epoch       uint64    `json:"epoch"`
	PublishedAt time.Time `json:"published_at"`
	AgeMs       int64     `json:"age_ms"`
}

func epochOf(s *Snapshot, now time.Time) epochJSON {
	return epochJSON{Epoch: s.Epoch, PublishedAt: s.PublishedAt.UTC(), AgeMs: s.Age(now).Milliseconds()}
}

type chainStatusJSON struct {
	Blocks       int64 `json:"blocks"`
	Transactions int64 `json:"transactions"`
	Drained      bool  `json:"drained"`
}

type statusResponse struct {
	epochJSON
	Drained bool                       `json:"drained"`
	Chains  map[string]chainStatusJSON `json:"chains"`
}

type chainsResponse struct {
	epochJSON
	Chains []string `json:"chains"`
}

type summaryResponse struct {
	epochJSON
	Chain        string           `json:"chain"`
	Blocks       int64            `json:"blocks"`
	Transactions int64            `json:"transactions"`
	First        *time.Time       `json:"first,omitempty"`
	Last         *time.Time       `json:"last,omitempty"`
	TypeCounts   map[string]int64 `json:"type_counts,omitempty"`
	Buckets      int              `json:"buckets"`
	Notes        []string         `json:"notes,omitempty"`
	Drained      bool             `json:"drained"`
}

type percentileJSON struct {
	P     float64 `json:"p"`
	Value float64 `json:"value"`
}

type percentilesResponse struct {
	epochJSON
	Chain       string           `json:"chain"`
	Buckets     int              `json:"buckets"`
	Percentiles []percentileJSON `json:"percentiles"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxPercentiles bounds one ?p= list: each value costs a selection over the
// snapshot's samples, so the list length is the request's work factor.
const maxPercentiles = 32

// parsePercentiles parses the ?p= list ("50,90,99" by default). Values must
// be finite numbers in [0, 100], at most maxPercentiles of them.
func parsePercentiles(q string) ([]float64, error) {
	if q == "" {
		q = "50,90,99"
	}
	if strings.Count(q, ",") >= maxPercentiles {
		return nil, fmt.Errorf("more than %d percentiles in one request", maxPercentiles)
	}
	parts := strings.Split(q, ",")
	ps := make([]float64, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad percentile %q", part)
		}
		if v < 0 || v > 100 {
			return nil, fmt.Errorf("percentile %v out of range [0, 100]", v)
		}
		ps = append(ps, v)
	}
	return ps, nil
}
