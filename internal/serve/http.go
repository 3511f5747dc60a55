package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// NewHandler builds the serving API over a publisher. Every endpoint reads
// exactly one snapshot (a single atomic load) and answers entirely from it,
// so responses are internally consistent even while epochs keep landing,
// and every response carries the staleness contract in headers:
// X-Serve-Epoch, X-Serve-Published (RFC3339Nano) and X-Serve-Age-Ms.
// A snapshot never changes, so neither do the bytes it answers with: each
// body and header value is built the first time a request needs it and
// shared by every later request for that epoch. Per request a handler only
// splices the age into a JSON body, and /v1/percentiles encodes its reply
// for the ?p= it was asked.
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
		w.Header()["Content-Type"] = textType
		fmt.Fprintln(w, "ok")
	})

	// Readiness is distinct from liveness: a server that accepted its
	// socket but has not published epoch 1 yet would answer /v1/* from the
	// empty placeholder snapshot — well-formed but vacuous. Load balancers
	// and smoke tests gate on /readyz so traffic only arrives once real
	// figures are behind it.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		snap, _ := stamp(w, p)
		w.Header()["Content-Type"] = textType
		if snap.Epoch == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "no snapshot published yet")
			return
		}
		fmt.Fprintln(w, "ready")
	})

	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		snap, age := stamp(w, p)
		writeSpliced(w, snap, age, snap.replies.status.get(func() []byte {
			chains := make(map[string]chainStatusJSON, len(snap.Chains))
			for name, st := range snap.Chains {
				chains[name] = chainStatusJSON{
					Blocks:       st.Summary.Blocks,
					Transactions: st.Summary.Transactions,
					Drained:      st.Drained,
				}
			}
			return snap.tail(statusResponse{epochJSON: snap.epochJSON(0), Drained: snap.Drained, Chains: chains})
		}))
	})

	mux.HandleFunc("GET /v1/chains", func(w http.ResponseWriter, r *http.Request) {
		snap, age := stamp(w, p)
		writeSpliced(w, snap, age, snap.replies.chains.get(func() []byte {
			return snap.tail(chainsResponse{epochJSON: snap.epochJSON(0), Chains: snap.Names()})
		}))
	})

	mux.HandleFunc("GET /v1/summary/{chain}", func(w http.ResponseWriter, r *http.Request) {
		snap, age := stamp(w, p)
		c, ok := snap.chain(r.PathValue("chain"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown chain %q", r.PathValue("chain"))
			return
		}
		writeSpliced(w, snap, age, c.summary.get(func() []byte {
			st := c.status
			resp := summaryResponse{
				epochJSON:    snap.epochJSON(0),
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
			return snap.tail(resp)
		}))
	})

	mux.HandleFunc("GET /v1/figures", func(w http.ResponseWriter, r *http.Request) {
		snap, _ := stamp(w, p)
		w.Header()["Content-Type"] = textType
		w.Write(snap.replies.figures.get(func() []byte { return []byte(snap.RenderFigures()) }))
	})

	mux.HandleFunc("GET /v1/figures/{chain}", func(w http.ResponseWriter, r *http.Request) {
		snap, _ := stamp(w, p)
		c, ok := snap.chain(r.PathValue("chain"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown chain %q", r.PathValue("chain"))
			return
		}
		w.Header()["Content-Type"] = textType
		w.Write(c.figures.get(func() []byte { return []byte(c.status.Figures) }))
	})

	mux.HandleFunc("GET /v1/percentiles/{chain}", func(w http.ResponseWriter, r *http.Request) {
		snap, age := stamp(w, p)
		c, ok := snap.chain(r.PathValue("chain"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown chain %q", r.PathValue("chain"))
			return
		}
		ps, err := parsePercentiles(r.URL.Query().Get("p"))
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		sel := c.selector()
		out := make([]percentileJSON, len(ps))
		for i, q := range ps {
			out[i] = percentileJSON{P: q, Value: sel.Percentile(q)}
		}
		writeJSON(w, percentilesResponse{
			epochJSON:   snap.epochJSON(age),
			Chain:       c.status.Summary.Chain,
			Buckets:     len(c.status.Summary.BucketTotals),
			Percentiles: out,
		})
	})

	return mux
}

// stamp loads the one snapshot the whole request will answer from, writes
// the staleness headers and returns the snapshot's age in milliseconds.
func stamp(w http.ResponseWriter, p *Publisher) (*Snapshot, int64) {
	snap := p.Current()
	m := snap.meta()
	age := snap.Age(p.now()).Milliseconds()
	h := w.Header()
	h["X-Serve-Epoch"] = m.epoch
	h["X-Serve-Published"] = m.published
	h["X-Serve-Age-Ms"] = []string{strconv.FormatInt(age, 10)}
	return snap, age
}

// Content-Type values shared by every response. Each is a one-element
// slice at capacity, so a caller's Header().Add copies it rather than
// writing into another response's header.
var (
	jsonType = []string{"application/json"}
	textType = []string{"text/plain; charset=utf-8"}
)

// replies are one snapshot's response bytes. Each piece is built by the
// first request that needs it, under its own sync.Once, so an epoch nobody
// reads costs nothing and none is built twice. Two requests for one epoch
// differ only in the age, so a JSON body is kept as the bytes that follow
// its age_ms digits, behind the epoch's shared prefix.
type replies struct {
	metaOnce sync.Once
	// epoch and published are the X-Serve-Epoch and X-Serve-Published
	// values, each a one-element slice at capacity (see jsonType).
	epoch, published []string
	// prefix is every JSON body's start up to its age digits:
	// {"epoch":E,"published_at":"T","age_ms":
	prefix []byte

	status, chains, figures lazyBytes

	chainsOnce sync.Once
	perChain   map[string]*chainReplies
}

// chainReplies are one chain's bytes within a snapshot.
type chainReplies struct {
	status           ChainStatus
	summary, figures lazyBytes

	selOnce sync.Once
	// sel holds the chain's bucket totals sorted; Percentile only reads
	// it, so concurrent requests share it once loaded.
	sel stats.Selector
}

// lazyBytes is one body, built by the first request that needs it.
type lazyBytes struct {
	once sync.Once
	b    []byte
}

func (l *lazyBytes) get(build func() []byte) []byte {
	l.once.Do(func() { l.b = build() })
	return l.b
}

// meta returns the snapshot's replies with the epoch's header values and
// JSON prefix built.
func (s *Snapshot) meta() *replies {
	r := &s.replies
	r.metaOnce.Do(func() {
		zero, err := json.Marshal(s.epochJSON(0))
		if err != nil || !bytes.HasSuffix(zero, []byte("0}")) {
			panic(fmt.Sprintf("serve: epoch %d metadata encodes as %q (%v), not an object ending in age_ms 0", s.Epoch, zero, err))
		}
		r.epoch = []string{strconv.FormatUint(s.Epoch, 10)}
		r.published = []string{s.PublishedAt.UTC().Format(time.RFC3339Nano)}
		r.prefix = zero[:len(zero)-len("0}")]
	})
	return r
}

// chain returns one chain's replies, or false when the snapshot has no
// such chain.
func (s *Snapshot) chain(name string) (*chainReplies, bool) {
	r := &s.replies
	r.chainsOnce.Do(func() {
		r.perChain = make(map[string]*chainReplies, len(s.Chains))
		for n, st := range s.Chains {
			r.perChain[n] = &chainReplies{status: st}
		}
	})
	c, ok := r.perChain[name]
	return c, ok
}

// selector returns the chain's bucket totals loaded into a selector.
func (c *chainReplies) selector() *stats.Selector {
	c.selOnce.Do(func() {
		vals := make([]float64, len(c.status.Summary.BucketTotals))
		for i, v := range c.status.Summary.BucketTotals {
			vals[i] = float64(v)
		}
		c.sel.Load(vals)
	})
	return &c.sel
}

// tail encodes resp, whose epochJSON must carry age 0, and returns what
// follows the age digit. A body that does not start with the epoch's
// prefix and a 0 would splice into the wrong bytes, so it panics instead.
func (s *Snapshot) tail(resp any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		panic(fmt.Sprintf("serve: epoch %d: encoding %T: %v", s.Epoch, resp, err))
	}
	prefix := s.meta().prefix
	head := append(prefix[:len(prefix):len(prefix)], '0')
	if b := buf.Bytes(); !bytes.HasPrefix(b, head) {
		panic(fmt.Sprintf("serve: epoch %d: %T body %.120q does not start with the epoch prefix and age 0, %q", s.Epoch, resp, b, head))
	}
	return buf.Bytes()[len(head):]
}

// bodyBufs recycles the buffers JSON replies are spliced into.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeSpliced writes a cached JSON body with the request's age spliced
// in, in one Write as an encoder would.
func writeSpliced(w http.ResponseWriter, snap *Snapshot, age int64, tail []byte) {
	w.Header()["Content-Type"] = jsonType
	buf := bodyBufs.Get().(*[]byte)
	b := append((*buf)[:0], snap.meta().prefix...)
	b = strconv.AppendInt(b, age, 10)
	b = append(b, tail...)
	w.Write(b)
	*buf = b
	bodyBufs.Put(buf)
}

// epochJSON is the staleness metadata embedded in every JSON body.
type epochJSON struct {
	Epoch       uint64    `json:"epoch"`
	PublishedAt time.Time `json:"published_at"`
	AgeMs       int64     `json:"age_ms"`
}

func (s *Snapshot) epochJSON(ageMs int64) epochJSON {
	return epochJSON{Epoch: s.Epoch, PublishedAt: s.PublishedAt.UTC(), AgeMs: ageMs}
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
	w.Header()["Content-Type"] = jsonType
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxPercentiles bounds one ?p= list. Each value is an O(1) read of the
// epoch's sorted selector; the cap bounds the size of the reply.
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
		// ParseFloat accepts "NaN", which every comparison lets through.
		if !(v >= 0 && v <= 100) {
			return nil, fmt.Errorf("percentile %v out of range [0, 100]", v)
		}
		ps = append(ps, v)
	}
	return ps, nil
}
