package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/chain"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/eos"
	"repro/internal/rpcserve"
)

// newEOSSim builds an in-process EOS chain with nBlocks one-transfer blocks
// and serves it over the same HTTP RPC surface cmd/chainsim exposes.
func newEOSSim(t *testing.T, nBlocks int) *httptest.Server {
	t.Helper()
	c := eos.New(eos.DefaultConfig(1000))
	alice, bob := eos.MustName("alice"), eos.MustName("bob")
	for _, n := range []eos.Name{alice, bob} {
		if err := c.CreateAccount(n, eos.SystemAccount); err != nil {
			t.Fatal(err)
		}
		if err := c.Tokens().Transfer(eos.TokenAccount, eos.SystemAccount, n, chain.EOSAsset(1_000_0000)); err != nil {
			t.Fatal(err)
		}
		c.Resources().Stake(&c.GetAccount(n).Resources, 100_0000, 100_0000)
	}
	for i := 0; i < nBlocks; i++ {
		c.PushTransaction(eos.NewAction(eos.TokenAccount, eos.ActTransfer, alice, map[string]string{
			"from": "alice", "to": "bob", "quantity": "0.0001 EOS",
		}))
		c.ProduceBlock()
	}
	srv := httptest.NewServer(rpcserve.NewEOSServer(c))
	t.Cleanup(srv.Close)
	return srv
}

// startServe runs the command's run() with a ready hook and returns the
// base URL, a cancel func, and a channel carrying run's error.
func startServe(t *testing.T, o serveOpts, out io.Writer) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	o.addr = "127.0.0.1:0"
	o.ready = func(u string) { ready <- u }
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, o, out) }()
	select {
	case u := <-ready:
		return u, cancel, errc
	case err := <-errc:
		cancel()
		t.Fatalf("run exited before ready: %v", err)
		return "", nil, nil
	}
}

func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// waitDrained polls /v1/status until the snapshot reports every feed
// drained.
func waitDrained(t *testing.T, baseURL string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, body := httpGet(t, baseURL+"/v1/status")
		var st struct {
			Drained bool `json:"drained"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("bad status body %s: %v", body, err)
		}
		if st.Drained {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("feeds never drained")
}

// TestServeEndToEnd drives the full lifecycle twice over the same blocks:
// a live crawl from an in-process EOS sim (teeing an archive), then an
// offline replay serve of that archive. Both must end at figures
// byte-identical to a direct cmd/report-style replay of the archive — the
// live/replay/serve determinism triangle the CI serve job also diffs.
func TestServeEndToEnd(t *testing.T) {
	const nBlocks = 80
	sim := newEOSSim(t, nBlocks)
	archiveDir := t.TempDir()

	// --- live serve, teeing the archive ---
	var liveOut bytes.Buffer
	o := serveOpts{
		ArchiveFlags: cli.ArchiveFlags{Archive: archiveDir, From: 1},
		eos:          sim.URL,
		epoch:        20 * time.Millisecond,
		workers:      4, ingest: 2, buffer: 32,
	}
	baseURL, cancel, errc := startServe(t, o, &liveOut)

	// Mid-ingest queries must answer with staleness metadata no matter the
	// crawl's progress.
	resp, _ := httpGet(t, baseURL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Serve-Epoch") == "" || resp.Header.Get("X-Serve-Published") == "" {
		t.Fatal("missing staleness headers mid-ingest")
	}

	waitDrained(t, baseURL)

	resp, sumBody := httpGet(t, baseURL+"/v1/summary/eos")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary: %d %s", resp.StatusCode, sumBody)
	}
	var sum struct {
		Blocks  int64 `json:"blocks"`
		Drained bool  `json:"drained"`
		Epoch   int64 `json:"epoch"`
	}
	if err := json.Unmarshal(sumBody, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Blocks != nBlocks || !sum.Drained || sum.Epoch < 1 {
		t.Fatalf("summary = %+v, want %d drained blocks", sum, nBlocks)
	}

	_, pctBody := httpGet(t, baseURL+"/v1/percentiles/eos?p=50,99")
	var pct struct {
		Percentiles []struct{ P, Value float64 } `json:"percentiles"`
	}
	if err := json.Unmarshal(pctBody, &pct); err != nil || len(pct.Percentiles) != 2 {
		t.Fatalf("percentiles = %s (err %v)", pctBody, err)
	}

	_, liveFigures := httpGet(t, baseURL+"/v1/figures")

	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("live run: %v", err)
	}
	if !strings.Contains(liveOut.String(), "shutdown:    clean") {
		t.Fatalf("no clean shutdown in output:\n%s", liveOut.String())
	}

	// --- the oracle: a direct offline replay, as cmd/report -replay runs it ---
	rd, err := archive.OpenWith(filepath.Join(archiveDir, "eos"), archive.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rd.Blocks() != nBlocks {
		t.Fatalf("archive holds %d blocks, want %d", rd.Blocks(), nBlocks)
	}
	kit, err := core.NewStatsKit("eos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.IngestArchive(context.Background(), rd, kit.Decoder, core.IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	want := kit.Summarize().Render()

	if string(liveFigures) != want {
		t.Errorf("live-served figures diverge from the offline replay:\n--- served ---\n%s--- replay ---\n%s", liveFigures, want)
	}

	// --- replay serve over the teed archive ---
	var replayOut bytes.Buffer
	o2 := serveOpts{
		ArchiveFlags: cli.ArchiveFlags{Replay: archiveDir},
		epoch:        20 * time.Millisecond,
		ingest:       2,
	}
	baseURL2, cancel2, errc2 := startServe(t, o2, &replayOut)
	waitDrained(t, baseURL2)
	_, replayFigures := httpGet(t, baseURL2+"/v1/figures")
	cancel2()
	if err := <-errc2; err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if string(replayFigures) != want {
		t.Errorf("replay-served figures diverge from the offline replay:\n--- served ---\n%s--- replay ---\n%s", replayFigures, want)
	}
}

// TestServeInterruptMidIngest cancels while the crawl is still running; the
// server must drain what it has, report the interruption, and exit cleanly.
func TestServeInterruptMidIngest(t *testing.T) {
	sim := newEOSSim(t, 200)
	var out bytes.Buffer
	o := serveOpts{
		ArchiveFlags: cli.ArchiveFlags{From: 1},
		eos:          sim.URL,
		epoch:        10 * time.Millisecond,
		workers:      1, ingest: 1, buffer: 1,
	}
	_, cancel, errc := startServe(t, o, &out)
	cancel() // interrupt immediately — likely mid-crawl
	if err := <-errc; err != nil {
		t.Fatalf("interrupted run returned error: %v", err)
	}
}

func TestServeNothingConfigured(t *testing.T) {
	err := run(context.Background(), serveOpts{addr: "127.0.0.1:0"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "nothing to serve") {
		t.Fatalf("err = %v", err)
	}
}

// TestServeReplayCorruptArchive: one good and one corrupt archive under
// -replay. Every archive is opened before any feed starts, so run returns
// the corruption having fed nothing — opening them one feed at a time let
// run tear the server down under the good archive's still-ingesting feed.
func TestServeReplayCorruptArchive(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"a-good", "b-corrupt"} {
		w, err := archive.NewWriter(archive.WriterConfig{Dir: filepath.Join(root, name), Chain: "eos"})
		if err != nil {
			t.Fatal(err)
		}
		for num := int64(1); num <= 64; num++ {
			block := fmt.Sprintf(`{"block_num":%d,"id":"i","previous":"p","timestamp":"2019-10-01T00:00:00.500","producer":"bp","transactions":null}`, num)
			if err := w.Append(num, []byte(block)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	seg := filepath.Join(root, "b-corrupt", "segment-000001.gz")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err = run(context.Background(), serveOpts{
		addr:         "127.0.0.1:0",
		ArchiveFlags: cli.ArchiveFlags{Replay: root},
		epoch:        time.Millisecond,
		ingest:       1,
	}, &out)
	if !errors.Is(err, archive.ErrCorrupt) {
		t.Fatalf("err = %v, want the second archive's corruption", err)
	}
	for _, line := range []string{"replayed:", "drained:"} {
		if strings.Contains(out.String(), line) {
			t.Fatalf("a feed ran although an archive was corrupt:\n%s", out.String())
		}
	}
}

// TestServeRefusesReplayWithEndpoints: -replay and live endpoints are two
// feed modes; passing both is a usage error, not a silently ignored flag.
func TestServeRefusesReplayWithEndpoints(t *testing.T) {
	var o serveOpts
	o.Register(flag.NewFlagSet("serve", flag.ContinueOnError), cli.ModeServe)
	o.Replay, o.From = "mem://serve-mix", 1
	if err := o.validate(); err != nil {
		t.Fatalf("plain replay refused: %v", err)
	}
	o.eos = "http://127.0.0.1:1"
	if err := o.validate(); err == nil || !strings.Contains(err.Error(), "one or the other") {
		t.Fatalf("err = %v, want the replay/live mix refused", err)
	}
}
