package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

// TestHandlerReadyzBeforeFirstEpoch pins the liveness/readiness split: a
// freshly-listening server is alive (200 /healthz) but not ready (503
// /readyz) until its first snapshot publishes, so a load balancer never
// routes traffic to the empty placeholder snapshot.
func TestHandlerReadyzBeforeFirstEpoch(t *testing.T) {
	p := NewPublisher()
	h := NewHandler(p)
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz before first epoch: %d", w.Code)
	}
	w := get(t, h, "/readyz")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before first epoch: %d, want 503", w.Code)
	}
	if got := w.Header().Get("X-Serve-Epoch"); got != "0" {
		t.Fatalf("X-Serve-Epoch = %q, want 0", got)
	}
	p.Publish()
	if w := get(t, h, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz after first epoch: %d %q", w.Code, w.Body.String())
	}
}

func TestHandlerEndpoints(t *testing.T) {
	p, kit, release := newEOSPublisher(t)
	if err := kit.Decoder.IngestBatch(eosBlocks(20, 1)); err != nil {
		t.Fatal(err)
	}
	snap := p.Publish()
	h := NewHandler(p)

	t.Run("healthz", func(t *testing.T) {
		w := get(t, h, "/healthz")
		if w.Code != http.StatusOK || strings.TrimSpace(w.Body.String()) != "ok" {
			t.Fatalf("healthz: %d %q", w.Code, w.Body.String())
		}
	})

	t.Run("readyz", func(t *testing.T) {
		w := get(t, h, "/readyz")
		if w.Code != http.StatusOK || strings.TrimSpace(w.Body.String()) != "ready" {
			t.Fatalf("readyz: %d %q", w.Code, w.Body.String())
		}
	})

	t.Run("staleness headers", func(t *testing.T) {
		w := get(t, h, "/v1/status")
		if got := w.Header().Get("X-Serve-Epoch"); got != strconv.FormatUint(snap.Epoch, 10) {
			t.Fatalf("X-Serve-Epoch = %q, want %d", got, snap.Epoch)
		}
		if w.Header().Get("X-Serve-Published") == "" {
			t.Fatal("missing X-Serve-Published")
		}
		if age := w.Header().Get("X-Serve-Age-Ms"); age == "" {
			t.Fatal("missing X-Serve-Age-Ms")
		} else if v, err := strconv.ParseInt(age, 10, 64); err != nil || v < 0 {
			t.Fatalf("bad X-Serve-Age-Ms %q", age)
		}
	})

	t.Run("status", func(t *testing.T) {
		w := get(t, h, "/v1/status")
		var resp statusResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Epoch != snap.Epoch {
			t.Fatalf("epoch = %d, want %d", resp.Epoch, snap.Epoch)
		}
		if resp.Drained {
			t.Fatal("drained while feed still registered")
		}
		if st := resp.Chains["eos"]; st.Blocks != 20 || st.Transactions != 20 {
			t.Fatalf("eos status = %+v", st)
		}
	})

	t.Run("chains", func(t *testing.T) {
		w := get(t, h, "/v1/chains")
		var resp chainsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Chains) != 1 || resp.Chains[0] != "eos" {
			t.Fatalf("chains = %v", resp.Chains)
		}
	})

	t.Run("summary", func(t *testing.T) {
		w := get(t, h, "/v1/summary/eos")
		var resp summaryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Chain != "eos" || resp.Blocks != 20 || resp.First == nil {
			t.Fatalf("summary = %+v", resp)
		}
		if resp.TypeCounts["transfer"] != 20 {
			t.Fatalf("type_counts = %v", resp.TypeCounts)
		}
	})

	t.Run("summary unknown chain", func(t *testing.T) {
		if w := get(t, h, "/v1/summary/doge"); w.Code != http.StatusNotFound {
			t.Fatalf("code = %d, want 404", w.Code)
		}
	})

	t.Run("figures", func(t *testing.T) {
		w := get(t, h, "/v1/figures")
		if w.Body.String() != snap.RenderFigures() {
			t.Fatalf("figures mismatch:\n%s\nvs\n%s", w.Body.String(), snap.RenderFigures())
		}
		wc := get(t, h, "/v1/figures/eos")
		if wc.Body.String() != snap.Chains["eos"].Summary.Render() {
			t.Fatal("per-chain figures mismatch")
		}
		if !strings.HasPrefix(wc.Body.String(), "--- eos figures ---") {
			t.Fatalf("unexpected figures header: %q", wc.Body.String())
		}
	})

	t.Run("percentiles", func(t *testing.T) {
		w := get(t, h, "/v1/percentiles/eos?p=0,50,100")
		var resp percentilesResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Percentiles) != 3 {
			t.Fatalf("percentiles = %+v", resp.Percentiles)
		}
		// All 20 txs land in one 6h bucket a day past the origin, so the
		// grid runs from empty leading buckets (0) up to that bucket (20).
		if lo := resp.Percentiles[0]; lo.P != 0 || lo.Value != 0 {
			t.Fatalf("p0 = %+v, want 0", lo)
		}
		if hi := resp.Percentiles[2]; hi.P != 100 || hi.Value != 20 {
			t.Fatalf("p100 = %+v, want 20", hi)
		}
		if resp.Buckets == 0 {
			t.Fatal("buckets = 0")
		}
	})

	t.Run("percentiles default grid", func(t *testing.T) {
		w := get(t, h, "/v1/percentiles/eos")
		var resp percentilesResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Percentiles) != 3 || resp.Percentiles[0].P != 50 {
			t.Fatalf("default grid = %+v", resp.Percentiles)
		}
	})

	t.Run("percentiles bad input", func(t *testing.T) {
		for _, q := range []string{"?p=abc", "?p=101", "?p=-1", "?p=50,,99", "?p=NaN", "?p=50,nan", "?p=Inf"} {
			if w := get(t, h, "/v1/percentiles/eos"+q); w.Code != http.StatusBadRequest {
				t.Fatalf("%s: code = %d, want 400", q, w.Code)
			}
		}
	})

	t.Run("percentiles list is bounded", func(t *testing.T) {
		grid := strings.TrimSuffix(strings.Repeat("50,", maxPercentiles), ",")
		if w := get(t, h, "/v1/percentiles/eos?p="+grid); w.Code != http.StatusOK {
			t.Fatalf("%d values: code = %d, want 200", maxPercentiles, w.Code)
		}
		if w := get(t, h, "/v1/percentiles/eos?p="+grid+",50"); w.Code != http.StatusBadRequest {
			t.Fatalf("%d values: code = %d, want 400", maxPercentiles+1, w.Code)
		}
	})

	t.Run("drained visible after release", func(t *testing.T) {
		release()
		w := get(t, h, "/v1/status")
		var resp statusResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Drained || !resp.Chains["eos"].Drained {
			t.Fatalf("status after release = %+v", resp)
		}
	})
}

// FuzzPercentilesQuery holds /v1/percentiles to its input contract on any
// ?p= value: a 200 for a list it can answer, a 400 for one it refuses —
// never a panic, which a value that passes the range check and then indexes
// the selector out of bounds would be.
func FuzzPercentilesQuery(f *testing.F) {
	for _, seed := range []string{"", "50,90,99", "0,100", "NaN", "nan", "Inf", "-0", "1e-320", "50,,99", "101"} {
		f.Add(seed)
	}
	p, kit, release := newEOSPublisher(f)
	if err := kit.Decoder.IngestBatch(eosBlocks(20, 1)); err != nil {
		f.Fatal(err)
	}
	release()
	h := NewHandler(p)
	f.Fuzz(func(t *testing.T, q string) {
		w := get(t, h, "/v1/percentiles/eos?p="+url.QueryEscape(q))
		if w.Code != http.StatusOK && w.Code != http.StatusBadRequest {
			t.Fatalf("?p=%q: code = %d, want 200 or 400", q, w.Code)
		}
	})
}
