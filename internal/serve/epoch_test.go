package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// drainedPublisher serves a drained three-chain snapshot: EOS with blocks
// in it, Tezos and XRP registered but empty (no first/last block, no
// buckets), so both shapes of a summary are on the wire.
func drainedPublisher(t testing.TB) *Publisher {
	t.Helper()
	p, kit, release := newEOSPublisher(t)
	if err := kit.Decoder.IngestBatch(eosBlocks(20, 1)); err != nil {
		t.Fatal(err)
	}
	release()
	for _, name := range []string{"tezos", "xrp"} {
		k, err := core.NewStatsKit(name, chain.ObservationStart, 6*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := p.Register(name, core.Window{Origin: chain.ObservationStart, Bucket: 6 * time.Hour}, k.Summarize)
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	if !p.Drained() {
		t.Fatal("publisher not drained after every feed released")
	}
	return p
}

// servedAt stops the publisher's clock at age past the current snapshot's
// publish time and returns that instant.
func servedAt(p *Publisher, age time.Duration) time.Time {
	now := p.Current().PublishedAt.Add(age)
	p.now = func() time.Time { return now }
	return now
}

// referenceReply is what the serving API answers for path from snap at
// now, every body encoded on the spot with json.NewEncoder(w).Encode from
// the response structs: the contract, whatever the handlers cache.
func referenceReply(t *testing.T, snap *Snapshot, now time.Time, path string) (code int, contentType, body string) {
	t.Helper()
	var buf bytes.Buffer
	encode := func(code int, v any) (int, string, string) {
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return code, "application/json", buf.String()
	}
	text := func(code int, s string) (int, string, string) { return code, "text/plain; charset=utf-8", s }
	meta := epochJSON{Epoch: snap.Epoch, PublishedAt: snap.PublishedAt.UTC(), AgeMs: now.Sub(snap.PublishedAt).Milliseconds()}
	u, err := url.Parse(path)
	if err != nil {
		t.Fatal(err)
	}
	switch u.Path {
	case "/healthz":
		return text(http.StatusOK, "ok\n")
	case "/readyz":
		if snap.Epoch == 0 {
			return text(http.StatusServiceUnavailable, "no snapshot published yet\n")
		}
		return text(http.StatusOK, "ready\n")
	case "/v1/status":
		chains := make(map[string]chainStatusJSON, len(snap.Chains))
		for name, st := range snap.Chains {
			chains[name] = chainStatusJSON{Blocks: st.Summary.Blocks, Transactions: st.Summary.Transactions, Drained: st.Drained}
		}
		return encode(http.StatusOK, statusResponse{epochJSON: meta, Drained: snap.Drained, Chains: chains})
	case "/v1/chains":
		return encode(http.StatusOK, chainsResponse{epochJSON: meta, Chains: snap.Names()})
	case "/v1/figures":
		return text(http.StatusOK, snap.RenderFigures())
	}
	route, name, _ := strings.Cut(strings.TrimPrefix(u.Path, "/v1/"), "/")
	st, ok := snap.Chains[name]
	if !ok {
		return encode(http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown chain %q", name)})
	}
	switch route {
	case "summary":
		resp := summaryResponse{
			epochJSON: meta, Chain: st.Summary.Chain, Blocks: st.Summary.Blocks, Transactions: st.Summary.Transactions,
			TypeCounts: st.Summary.TypeCounts, Buckets: len(st.Summary.BucketTotals), Drained: st.Drained,
		}
		if !st.Summary.First.IsZero() {
			first, last := st.Summary.First.UTC(), st.Summary.Last.UTC()
			resp.First, resp.Last = &first, &last
		}
		return encode(http.StatusOK, resp)
	case "figures":
		return text(http.StatusOK, st.Summary.Render())
	case "percentiles":
		q := u.Query().Get("p")
		if q == "" {
			q = "50,90,99"
		}
		vals := make([]float64, len(st.Summary.BucketTotals))
		for i, v := range st.Summary.BucketTotals {
			vals[i] = float64(v)
		}
		var sel stats.Selector
		sel.Load(vals)
		var out []percentileJSON
		for _, part := range strings.Split(q, ",") {
			v, err := strconv.ParseFloat(part, 64)
			if err != nil {
				t.Fatalf("%s: reference takes only numbers: %v", path, err)
			}
			if math.IsNaN(v) || v < 0 || v > 100 {
				return encode(http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("percentile %v out of range [0, 100]", v)})
			}
			out = append(out, percentileJSON{P: v, Value: sel.Percentile(v)})
		}
		return encode(http.StatusOK, percentilesResponse{epochJSON: meta, Chain: st.Summary.Chain, Buckets: len(vals), Percentiles: out})
	}
	t.Fatalf("reference has no route for %s", path)
	return 0, "", ""
}

// servedPaths is every route of the API against snap: each per-chain
// route for each registered chain and for one that is not.
func servedPaths(snap *Snapshot) []string {
	paths := []string{"/healthz", "/readyz", "/v1/status", "/v1/chains", "/v1/figures"}
	for _, c := range append(snap.Names(), "doge") {
		paths = append(paths,
			"/v1/summary/"+c, "/v1/figures/"+c,
			"/v1/percentiles/"+c, "/v1/percentiles/"+c+"?p=0,12.5,100", "/v1/percentiles/"+c+"?p=NaN")
	}
	return paths
}

// TestEpochBodiesMatchPerRequestEncoding pins the bytes on the wire: for
// the epoch-0 placeholder and a drained multi-chain epoch, at ages whose
// digit counts differ, every route answers the status, Content-Type,
// staleness headers and body that encoding its reply on the spot gives.
func TestEpochBodiesMatchPerRequestEncoding(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		publishers := map[string]*Publisher{"placeholder": NewPublisher(), "drained": drainedPublisher(t)}
		for name, p := range publishers {
			t.Run(name, func(t *testing.T) {
				h := NewHandler(p)
				snap := p.Current()
				for _, age := range []time.Duration{0, 9 * time.Millisecond, 10 * time.Millisecond, 12345678901 * time.Millisecond} {
					now := servedAt(p, age)
					for _, path := range servedPaths(snap) {
						code, contentType, body := referenceReply(t, snap, now, path)
						got := get(t, h, path).Result()
						gotBody := new(bytes.Buffer)
						if _, err := gotBody.ReadFrom(got.Body); err != nil {
							t.Fatal(err)
						}
						want := map[string]string{
							"Content-Type":      contentType,
							"X-Serve-Epoch":     strconv.FormatUint(snap.Epoch, 10),
							"X-Serve-Published": snap.PublishedAt.UTC().Format(time.RFC3339Nano),
							"X-Serve-Age-Ms":    strconv.FormatInt(age.Milliseconds(), 10),
						}
						if got.StatusCode != code {
							t.Errorf("age %v %s: status %d, want %d", age, path, got.StatusCode, code)
						}
						for k, v := range want {
							if g := got.Header.Values(k); len(g) != 1 || g[0] != v {
								t.Errorf("age %v %s: %s = %q, want [%q]", age, path, k, g, v)
							}
						}
						if gotBody.String() != body {
							t.Errorf("age %v %s: body\n%s\nwant\n%s", age, path, gotBody, body)
						}
					}
				}
			})
		}
	})
}

// discardWriter is the least a handler can write into: a header map kept
// across requests and a body that is counted, not kept.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

func (w *discardWriter) WriteHeader(int) {}

// TestCachedRepliesAllocationBound: once an epoch's bodies are built, a
// read of a cached route allocates only its X-Serve-Age-Ms value, plus
// the wildcard match http.ServeMux makes for a per-chain route. Bodies,
// the epoch and publish-time headers and the Content-Type are the
// snapshot's, so none of them is rebuilt per request. (Before the bodies
// were cached these four routes allocated 16, 15, 9 and 7 times.)
func TestCachedRepliesAllocationBound(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	// k: the one-element slice behind X-Serve-Age-Ms. An age under 100 ms
	// formats without allocating its string.
	const k = 1
	p := drainedPublisher(t)
	servedAt(p, 42*time.Millisecond)
	h := NewHandler(p)
	w := &discardWriter{h: http.Header{}}
	for path, bound := range map[string]float64{"/v1/status": k, "/v1/summary/eos": k + 1, "/v1/figures": k, "/v1/figures/eos": k + 1} {
		r := httptest.NewRequest("GET", path, nil)
		serve := func() { h.ServeHTTP(w, r) }
		serve()
		if allocs := testing.AllocsPerRun(200, serve); allocs > bound {
			t.Errorf("%s: %.1f allocs per request, want at most %v", path, allocs, bound)
		}
	}
	if w.n == 0 {
		t.Fatal("no body written")
	}
}

// TestSnapshotBytesConcurrentAndHeld: the bytes one epoch serves are
// shared by every request for it, so they must be built once however many
// readers race the first read, stay the epoch's own while later epochs
// land, and never take up what a caller appends to a header it was given.
func TestSnapshotBytesConcurrentAndHeld(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		paths := []string{"/v1/status", "/v1/chains", "/v1/summary/eos", "/v1/figures", "/v1/figures/eos", "/v1/percentiles/eos"}
		read := func(h http.Handler) string {
			var sb strings.Builder
			for _, path := range paths {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
				fmt.Fprintf(&sb, "%s %d %v\n%s", path, w.Code, w.Result().Header, w.Body)
			}
			return sb.String()
		}

		t.Run("first read races", func(t *testing.T) {
			p := drainedPublisher(t)
			servedAt(p, 7*time.Millisecond)
			h := NewHandler(p)
			const readers = 8
			got := make([]string, readers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					got[i] = read(h)
				}()
			}
			close(start)
			wg.Wait()
			for i := 1; i < readers; i++ {
				if got[i] != got[0] {
					t.Fatalf("reader %d read other bytes than reader 0:\n%s\nvs\n%s", i, got[i], got[0])
				}
			}
		})

		t.Run("held across publishes", func(t *testing.T) {
			p, kit, release := newEOSPublisher(t)
			defer release()
			if err := kit.Decoder.IngestBatch(eosBlocks(10, 1)); err != nil {
				t.Fatal(err)
			}
			held := p.Publish()
			servedAt(p, 3*time.Millisecond)
			// A publisher whose current epoch stays the held one serves its
			// bytes while p moves on.
			frozen := &Publisher{now: p.now, sources: map[string]*source{}}
			frozen.cur.Store(held)
			heldHandler := NewHandler(frozen)
			before := read(heldHandler)
			for i := 0; i < 50; i++ {
				if err := kit.Decoder.IngestBatch(eosBlocks(2, int64(11+2*i))); err != nil {
					t.Fatal(err)
				}
				p.Publish()
				read(NewHandler(p))
			}
			if after := read(heldHandler); after != before {
				t.Fatalf("epoch %d's bytes changed after 50 publishes:\n%s\nwas\n%s", held.Epoch, after, before)
			}
			if latest := read(NewHandler(p)); latest == before {
				t.Fatal("50 publishes later the current epoch still serves the held epoch's bytes")
			}
		})

		t.Run("header appends stay private", func(t *testing.T) {
			p := drainedPublisher(t)
			h := NewHandler(p)
			// Each response gets its own appended value; a header slice with
			// room to spare would let the next response's append overwrite it.
			var recs []*httptest.ResponseRecorder
			for i := 0; i < 3; i++ {
				for _, path := range paths {
					w := httptest.NewRecorder()
					h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
					mark := fmt.Sprintf("x%d", len(recs))
					for _, k := range []string{"X-Serve-Epoch", "X-Serve-Published", "Content-Type"} {
						w.Header().Add(k, mark)
					}
					recs = append(recs, w)
				}
			}
			epoch := strconv.FormatUint(p.Current().Epoch, 10)
			for i, w := range recs {
				mark := fmt.Sprintf("x%d", i)
				if got := w.Header().Values("X-Serve-Epoch"); len(got) != 2 || got[0] != epoch || got[1] != mark {
					t.Fatalf("response %d: X-Serve-Epoch = %q, want [%q %q]", i, got, epoch, mark)
				}
				for _, k := range []string{"X-Serve-Published", "Content-Type"} {
					if got := w.Header().Values(k); len(got) != 2 || got[1] != mark {
						t.Fatalf("response %d: %s = %q, want its value then %q", i, k, got, mark)
					}
				}
			}
		})
	})
}
