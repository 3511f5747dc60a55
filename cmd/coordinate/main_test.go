package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/eos"
	"repro/internal/rpcserve"
)

// TestMain doubles this test binary as the worker executable: when the
// coordinator under test execs os.Executable() with the payload env set,
// the subprocess lands here and runs workerMain instead of the tests.
func TestMain(m *testing.M) {
	if payload := os.Getenv(workerEnv); payload != "" {
		os.Exit(workerMain(payload, slog.New(slog.NewTextHandler(os.Stderr, nil))))
	}
	os.Exit(m.Run())
}

// newEOSServer serves a deterministic EOS chainsim over real HTTP so
// worker subprocesses can reach it.
func newEOSServer(t *testing.T, nBlocks int) *httptest.Server {
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

// blackout wraps an EOS server, answering 500 for every get_block inside
// [lo, hi] — a range of history that is permanently dark.
func blackout(t *testing.T, inner *httptest.Server, lo, hi int64) *httptest.Server {
	t.Helper()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/get_block") {
			body, _ := io.ReadAll(r.Body)
			var req struct {
				Num json.Number `json:"block_num_or_id"`
			}
			json.Unmarshal(body, &req)
			num, _ := req.Num.Int64()
			if num >= lo && num <= hi {
				http.Error(w, "blackout", http.StatusInternalServerError)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)
	return proxy
}

func eosHead(t *testing.T, url string) int64 {
	t.Helper()
	head, err := collect.NewEOSClient(url).Head(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return head
}

// oracle crawls [1, to] in one process and renders the figures — the
// byte-identity reference the distributed runs are diffed against.
func oracle(t *testing.T, url string, to int64) string {
	t.Helper()
	kit, err := core.NewStatsKit("eos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.IngestCrawl(context.Background(), collect.NewEOSClient(url),
		collect.CrawlConfig{From: 1, To: to, Workers: 4},
		kit.Decoder, core.IngestConfig{}); err != nil {
		t.Fatalf("oracle crawl: %v", err)
	}
	return core.Figures(kit.State())
}

func testOpts(endpoint, store string) coordOpts {
	return coordOpts{
		chain: "eos", endpoint: endpoint, from: 1, to: 0,
		shards: 3, store: store, every: 5,
		leaseTTL: time.Minute, attempts: 8, backoff: 5 * time.Millisecond,
		workers: 2,
	}
}

// TestCoordinateGapReportPartial: one slice's history is permanently
// dark. The run must exit non-nil but still print the partial figures
// and write a gap report naming exactly the missing range.
func TestCoordinateGapReportPartial(t *testing.T) {
	inner := newEOSServer(t, 30)
	head := eosHead(t, inner.URL)
	tasks, err := coord.Config{Chain: "eos", From: 1, To: head, Shards: 3}.Cut()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := tasks[1].From, tasks[1].To
	srv := blackout(t, inner, lo, hi)

	dir := t.TempDir()
	o := testOpts(srv.URL, "file://"+filepath.Join(dir, "store"))
	o.to = head
	o.attempts = 2
	o.gapReport = filepath.Join(dir, "gaps.json")

	var out bytes.Buffer
	diag := &triggerWriter{}
	err = run(context.Background(), o, &out, diag)
	if err == nil {
		t.Fatalf("run with a dark slice reported success:\n%s", diag.String())
	}
	if !strings.Contains(err.Error(), "partial") {
		t.Errorf("error %v does not say the figures are partial", err)
	}
	if !strings.Contains(out.String(), "--- eos figures ---") {
		t.Errorf("degraded run printed no partial figures:\n%s", out.String())
	}

	raw, rerr := os.ReadFile(o.gapReport)
	if rerr != nil {
		t.Fatalf("gap report not written: %v", rerr)
	}
	var report struct {
		Complete bool `json:"complete"`
		Missing  []struct {
			From int64 `json:"from"`
			To   int64 `json:"to"`
		} `json:"missing"`
		Failures []struct {
			Task  string `json:"task"`
			Error string `json:"error"`
		} `json:"failures"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("gap report is not JSON: %v\n%s", err, raw)
	}
	if report.Complete {
		t.Errorf("degraded run's report claims completeness:\n%s", raw)
	}
	if len(report.Missing) != 1 || report.Missing[0].From != lo || report.Missing[0].To != hi {
		t.Errorf("missing ranges %+v, want exactly [%d, %d]", report.Missing, lo, hi)
	}
	if len(report.Failures) != 1 || !strings.Contains(report.Failures[0].Task, "eos-") {
		t.Errorf("failures %+v do not name the dark slice", report.Failures)
	}
}

// holdProxy wraps an EOS server, calling hold before it answers each
// get_block: a delay keeps a coordinated crawl alive long enough to be
// interrupted, a gate holds it mid-run while it is observed.
func holdProxy(t *testing.T, inner *httptest.Server, hold func()) *httptest.Server {
	t.Helper()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/get_block") {
			hold()
		}
		inner.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)
	return proxy
}

// TestCoordinateProgressMidRun: while a run is in flight — its workers
// held at their first block — the -debug-addr listener serves GET
// /v1/progress in the gap-report shape over the pinned range, not
// complete, with the election epoch in X-Coord-Epoch matching the body's,
// and beside it the pprof index and a one-second CPU profile.
func TestCoordinateProgressMidRun(t *testing.T) {
	inner := newEOSServer(t, 45)
	head := eosHead(t, inner.URL)
	gate := make(chan struct{})
	var open sync.Once
	srv := holdProxy(t, inner, func() { <-gate })
	t.Cleanup(func() { open.Do(func() { close(gate) }) }) // before the proxy closes

	o := testOpts(srv.URL, "file://"+filepath.Join(t.TempDir(), "store"))
	o.debugAddr = "127.0.0.1:0"
	announced := make(chan struct{})
	diag := &triggerWriter{needle: `msg="serving debug"`, fire: func() { close(announced) }}
	errc := make(chan error, 1)
	go func() { errc <- run(context.Background(), o, io.Discard, diag) }()
	select {
	case <-announced:
	case err := <-errc:
		t.Fatalf("run ended before serving progress: %v\n%s", err, diag.String())
	}
	_, base, _ := strings.Cut(diag.String(), `msg="serving debug" url=`)
	base, _, _ = strings.Cut(base, "\n")
	url := base + "/v1/progress"

	var progress struct {
		Report coord.GapReport `json:"report"`
		Epoch  int             `json:"epoch"`
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &progress); err != nil {
				t.Fatalf("mid-run progress is not JSON: %v\n%s", err, body)
			}
			if got := resp.Header.Get("X-Coord-Epoch"); got != fmt.Sprint(progress.Epoch) {
				t.Errorf("X-Coord-Epoch %q does not match body epoch %d", got, progress.Epoch)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("progress still answers %d:\n%s", resp.StatusCode, body)
		}
	}
	if r := progress.Report; r.Chain != "eos" || r.From != 1 || r.To != head || r.Complete {
		t.Errorf("mid-run progress report: %+v, want an incomplete [1, %d] on eos", r, head)
	}
	for path, want := range map[string][]byte{"/debug/pprof/": []byte("<html>"), "/debug/pprof/profile?seconds=1": {0x1f, 0x8b}} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(body, want) {
			t.Errorf("GET %s mid-run: %d, body starts % x, want % x", path, resp.StatusCode, body[:min(len(body), 8)], want)
		}
	}

	open.Do(func() { close(gate) })
	if err := <-errc; err != nil {
		t.Fatalf("run after the gate opened: %v\n%s", err, diag.String())
	}
}

// triggerWriter collects diagnostics — the coordinator's records and its
// workers' stderr, written concurrently — and calls fire, when set, once:
// the first time needle has been written.
type triggerWriter struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	needle string
	fire   func()
}

func (w *triggerWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.fire != nil && bytes.Contains(w.buf.Bytes(), []byte(w.needle)) {
		w.fire()
		w.fire = nil
	}
	return len(p), nil
}

func (w *triggerWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestCoordinateInterruptResume: an interrupted coordinator asks its worker
// to stop (SIGTERM) instead of SIGKILLing it, so the worker — a real
// subprocess — still writes the checkpoint of the chunks it holds complete
// and says why it exits; the rerun resumes from that checkpoint and
// finishes byte-identical to the single-process oracle.
func TestCoordinateInterruptResume(t *testing.T) {
	inner := newEOSServer(t, 45)
	head := eosHead(t, inner.URL)
	want := oracle(t, inner.URL, head)
	srv := holdProxy(t, inner, func() { time.Sleep(20 * time.Millisecond) })

	o := testOpts(srv.URL, "file://"+filepath.Join(t.TempDir(), "store"))
	o.shards = 1

	// Interrupt mid-slice: as soon as the worker reports its first
	// checkpoint, with most of the slice still to crawl.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	diag1 := &triggerWriter{needle: "msg=checkpoint ", fire: cancel}
	var out1 bytes.Buffer
	if err := run(ctx, o, &out1, diag1); err == nil {
		t.Fatalf("interrupted run exited clean:\n%s", diag1.String())
	}
	if ctx.Err() == nil {
		t.Fatalf("run failed before any checkpoint was written:\n%s", diag1.String())
	}
	if !strings.Contains(diag1.String(), `msg="worker failed" err="coord: crawling`) || !strings.Contains(diag1.String(), "context canceled") {
		t.Errorf("worker did not report a cancelled crawl:\n%s", diag1.String())
	}
	if strings.Contains(diag1.String(), "signal: killed") {
		t.Errorf("worker was SIGKILLed instead of stopping on SIGTERM:\n%s", diag1.String())
	}
	store, err := blobstore.Resolve(o.store)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := store.Get(context.Background(), coord.CheckpointKey("eos", 1, head))
	if err != nil {
		t.Fatalf("interrupted worker left no checkpoint: %v\n%s", err, diag1.String())
	}
	ck, err := core.DecodeShard(raw)
	if err != nil {
		t.Fatal(err)
	}
	if cov := ck.Covered(); !cov.Known() || cov.To != head || cov.From <= 1 {
		t.Fatalf("checkpoint covers %s, want a proper suffix of [1, %d]", cov, head)
	}

	var out2 bytes.Buffer
	diag2 := &triggerWriter{}
	if err := run(context.Background(), o, &out2, diag2); err != nil {
		t.Fatalf("rerun: %v\n%s", err, diag2.String())
	}
	if !strings.Contains(diag2.String(), "msg=resuming ") {
		t.Errorf("rerun's worker did not resume from the checkpoint:\n%s", diag2.String())
	}
	if out2.String() != want {
		t.Errorf("resumed figures differ from single-process oracle\n--- got ---\n%s--- want ---\n%s", out2.String(), want)
	}
}

// TestNonPositiveLeaseTTLRefusedBeforeAnyDial: a standby with -lease-ttl 0
// used to claim leases born expired and poll the store with no pause between
// rounds, -lease-ttl 2ns panicked the renewal ticker (a third of it is
// zero) once the run lease was held, and -shards 0 used to win the run
// lease, load run state and pin head before the cut refused it. run refuses
// these values as usage errors before it dials the endpoint (there is none
// listening here) or touches the store.
func TestNonPositiveLeaseTTLRefusedBeforeAnyDial(t *testing.T) {
	store := blobstore.OpenMemory("lease-ttl-zero")
	// The memory store counts hits only: leave a run plan for a standby's
	// first probe to find, so that probe would show below.
	if err := store.Put(context.Background(), coord.RunStateKey("eos"), []byte("{}")); err != nil {
		t.Fatal(err)
	}
	store.ResetOps()
	rows := []struct {
		flag   string
		ttl    time.Duration
		shards int
	}{
		{"-lease-ttl", 0, 3},
		{"-lease-ttl", -time.Second, 3},
		{"-lease-ttl", 2 * time.Nanosecond, 3},
		{"-shards", time.Minute, 0},
	}
	for _, row := range rows {
		for _, standby := range []bool{true, false} {
			o := testOpts("http://127.0.0.1:1", store.URL())
			o.leaseTTL, o.shards, o.standby = row.ttl, row.shards, standby
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := run(ctx, o, io.Discard, io.Discard)
			cancel()
			if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), row.flag) {
				t.Errorf("ttl %v shards %d standby %v: run = %v, want a usage error naming %s", o.leaseTTL, o.shards, standby, err, row.flag)
			}
		}
	}
	for _, op := range []string{blobstore.OpPut, blobstore.OpGet, blobstore.OpGetRange, blobstore.OpList, blobstore.OpStat, blobstore.OpDelete} {
		if n := store.Ops(op); n != 0 {
			t.Errorf("refused run still made %d %s call(s) on the store", n, op)
		}
	}
}

// TestWorkerBadPayload: a worker handed garbage refuses with a usage
// exit code instead of crawling nonsense.
func TestWorkerBadPayload(t *testing.T) {
	if code := workerMain("{torn", slog.New(slog.DiscardHandler)); code != 2 {
		t.Fatalf("bad payload exit code %d, want 2", code)
	}
}
