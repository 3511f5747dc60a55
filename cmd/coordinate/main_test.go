package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
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
// the subprocess lands here and runs workerMain instead of the tests —
// so the chaos tests SIGKILL REAL processes, not simulated ones. The
// coordEnv trampoline does the same for a whole ACTIVE COORDINATOR, so
// the standby-takeover test can SIGKILL a real coordinator process.
// workerEnv wins when both are set: a worker launched by a trampolined
// coordinator inherits the coordinator's env.
func TestMain(m *testing.M) {
	if payload := os.Getenv(workerEnv); payload != "" {
		os.Exit(workerMain(payload, os.Stderr))
	}
	if payload := os.Getenv(coordEnv); payload != "" {
		os.Exit(coordMain(payload))
	}
	os.Exit(m.Run())
}

// coordEnv carries a full coordinator configuration into a re-exec'd test
// binary, turning it into a real, killable active coordinator process.
const coordEnv = "COORDINATE_COORD_OPTS"

// coordPayload mirrors coordOpts with exported fields for the JSON
// round-trip through coordEnv.
type coordPayload struct {
	Chain          string        `json:"chain"`
	Endpoint       string        `json:"endpoint"`
	From           int64         `json:"from"`
	To             int64         `json:"to"`
	Shards         int           `json:"shards"`
	Store          string        `json:"store"`
	Every          int64         `json:"every"`
	LeaseTTL       time.Duration `json:"lease_ttl"`
	Attempts       int           `json:"attempts"`
	Backoff        time.Duration `json:"backoff"`
	Workers        int           `json:"workers"`
	GapReport      string        `json:"gap_report"`
	ChaosKill      int           `json:"chaos_kill"`
	Owner          string        `json:"owner"`
	Standby        bool          `json:"standby"`
	ProgressAddr   string        `json:"progress_addr"`
	ChaosKillCoord bool          `json:"chaos_kill_coordinator"`
}

func payloadFrom(o coordOpts) coordPayload {
	return coordPayload{
		Chain: o.chain, Endpoint: o.endpoint, From: o.from, To: o.to,
		Shards: o.shards, Store: o.store, Every: o.every,
		LeaseTTL: o.leaseTTL, Attempts: o.attempts, Backoff: o.backoff,
		Workers:   o.workers,
		GapReport: o.gapReport, ChaosKill: o.chaosKill, Owner: o.owner,
		Standby: o.standby, ProgressAddr: o.progressAddr, ChaosKillCoord: o.chaosKillCoord,
	}
}

func (p coordPayload) opts() coordOpts {
	return coordOpts{
		chain: p.Chain, endpoint: p.Endpoint, from: p.From, to: p.To,
		shards: p.Shards, store: p.Store, every: p.Every,
		leaseTTL: p.LeaseTTL, attempts: p.Attempts, backoff: p.Backoff,
		workers:   p.Workers,
		gapReport: p.GapReport, chaosKill: p.ChaosKill, owner: p.Owner,
		standby: p.Standby, progressAddr: p.ProgressAddr, chaosKillCoord: p.ChaosKillCoord,
	}
}

func coordMain(payload string) int {
	var p coordPayload
	if err := json.Unmarshal([]byte(payload), &p); err != nil {
		fmt.Fprintf(os.Stderr, "coordinator trampoline: bad payload: %v\n", err)
		return 2
	}
	if err := run(context.Background(), p.opts(), os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "coordinate:", err)
		return 1
	}
	return 0
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

// TestCoordinateChaosKillResume is the command-level chaos acceptance
// path: seeded store faults on every blob operation AND a worker
// subprocess SIGKILLed right after its first checkpoint. The coordinator
// must relaunch it, the relaunch must resume from the checkpoint, and
// the merged figures must be byte-identical to a single-process crawl.
func TestCoordinateChaosKillResume(t *testing.T) {
	srv := newEOSServer(t, 45)
	head := eosHead(t, srv.URL)
	want := oracle(t, srv.URL, head)

	dir := t.TempDir()
	o := testOpts(srv.URL, "faulty+file://"+filepath.Join(dir, "store")+"?fault=0.01&fault-seed=7")
	o.gapReport = filepath.Join(dir, "gaps.json")
	o.chaosKill = 2

	var out, diag bytes.Buffer
	if err := run(context.Background(), o, &out, &diag); err != nil {
		t.Fatalf("coordinate under chaos: %v\n%s", err, diag.String())
	}
	if out.String() != want {
		t.Errorf("merged figures differ from single-process oracle\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
	// The SIGKILL really happened and was retried, not dodged.
	if !strings.Contains(diag.String(), "signal: killed") {
		t.Errorf("chaos kill never fired:\n%s", diag.String())
	}
	if !strings.Contains(diag.String(), "resuming:") {
		t.Errorf("relaunched worker did not resume from its checkpoint:\n%s", diag.String())
	}

	raw, err := os.ReadFile(o.gapReport)
	if err != nil {
		t.Fatalf("gap report not written: %v", err)
	}
	var report struct {
		Complete bool             `json:"complete"`
		Missing  []map[string]any `json:"missing"`
		Failures []map[string]any `json:"failures"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("gap report is not JSON: %v\n%s", err, raw)
	}
	if !report.Complete || len(report.Missing) != 0 || len(report.Failures) != 0 {
		t.Errorf("complete run's gap report claims gaps:\n%s", raw)
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

	var out, diag bytes.Buffer
	err = run(context.Background(), o, &out, &diag)
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

// delayProxy wraps an EOS server with a fixed per-get_block delay so a
// coordinated crawl lives long enough to be observed (and killed)
// mid-run.
func delayProxy(t *testing.T, inner *httptest.Server, d time.Duration) *httptest.Server {
	t.Helper()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/get_block") {
			time.Sleep(d)
		}
		inner.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)
	return proxy
}

// TestCoordinateStandbyTakeover is the coordinator-kill chaos leg: a REAL
// active coordinator process (this test binary, re-exec'd through the
// coordEnv trampoline) SIGKILLs itself and its running workers right after
// its first slice validates, under 1% injected store faults. A -standby
// instance watching the same store must take over on lease expiry, adopt
// the plan, and finish with figures byte-identical to the single-process
// oracle. While the active lives, its /v1/progress endpoint must serve a
// parseable mid-run gap report.
func TestCoordinateStandbyTakeover(t *testing.T) {
	inner := newEOSServer(t, 45)
	head := eosHead(t, inner.URL)
	want := oracle(t, inner.URL, head)
	srv := delayProxy(t, inner, 20*time.Millisecond)

	dir := t.TempDir()
	storeLoc := "faulty+file://" + filepath.Join(dir, "store") + "?fault=0.01&fault-seed=11"

	// The active: short lease TTL so its death is detected quickly, chaos
	// kill armed, progress served on an ephemeral port the test discovers
	// from the diagnostic line.
	o := testOpts(srv.URL, storeLoc)
	o.leaseTTL = time.Second
	o.backoff = 50 * time.Millisecond
	o.owner = "active-coordinator"
	o.progressAddr = "127.0.0.1:0"
	o.chaosKillCoord = true

	payload, err := json.Marshal(payloadFrom(o))
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), coordEnv+"="+string(payload))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var activeOut bytes.Buffer
	cmd.Stdout = &activeOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Scan the active's stderr live: capture everything for post-mortem
	// assertions and surface the progress address as soon as it prints.
	addrCh := make(chan string, 1)
	var activeDiag strings.Builder
	var diagMu sync.Mutex
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			diagMu.Lock()
			activeDiag.WriteString(line + "\n")
			diagMu.Unlock()
			if rest, ok := strings.CutPrefix(line, "coordinate: progress at http://"); ok {
				select {
				case addrCh <- strings.TrimSuffix(rest, "/v1/progress"):
				default:
				}
			}
		}
	}()
	diag := func() string {
		diagMu.Lock()
		defer diagMu.Unlock()
		return activeDiag.String()
	}

	// The standby watches the same store from this process, concurrently
	// with the active — exercising the held-election wait path too.
	so := testOpts(srv.URL, storeLoc)
	so.leaseTTL = time.Second
	so.backoff = 50 * time.Millisecond
	so.attempts = 10 // claim polling must outlive the dead active's task leases
	so.owner = "standby-coordinator"
	so.standby = true
	so.gapReport = filepath.Join(dir, "gaps.json")
	var standbyOut, standbyDiag bytes.Buffer
	standbyErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	go func() { standbyErr <- run(ctx, so, &standbyOut, &standbyDiag) }()

	// Mid-run: the active's progress endpoint must serve a parseable
	// gap-report-shaped snapshot before the kill lands.
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("active never announced its progress address:\n%s", diag())
	}
	var progress struct {
		Report struct {
			Chain    string `json:"chain"`
			From     int64  `json:"from"`
			To       int64  `json:"to"`
			Complete bool   `json:"complete"`
		} `json:"report"`
		Epoch int `json:"epoch"`
	}
	polled := false
	for start := time.Now(); time.Since(start) < 15*time.Second && !polled; {
		resp, perr := http.Get("http://" + addr + "/v1/progress")
		if perr != nil {
			break // the active is already dead; the kill beat the poll
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if jerr := json.Unmarshal(body, &progress); jerr != nil {
				t.Fatalf("mid-run progress is not JSON: %v\n%s", jerr, body)
			}
			if progress.Report.Chain != "eos" || progress.Report.From != 1 || progress.Report.To != head {
				t.Errorf("mid-run progress report: %+v, want [1, %d] on eos", progress.Report, head)
			}
			if progress.Report.Complete {
				t.Error("mid-run progress claims completion")
			}
			if got := resp.Header.Get("X-Coord-Epoch"); got != fmt.Sprint(progress.Epoch) {
				t.Errorf("X-Coord-Epoch %q does not match body epoch %d", got, progress.Epoch)
			}
			polled = true
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The kill is real: the active dies by SIGKILL, not a clean exit.
	werr := cmd.Wait()
	<-scanDone
	if werr == nil || !strings.Contains(werr.Error(), "signal: killed") {
		t.Fatalf("active coordinator exit: %v, want SIGKILL\n%s", werr, diag())
	}
	if !strings.Contains(diag(), "chaos: SIGKILLing active coordinator") {
		t.Fatalf("chaos kill never armed:\n%s", diag())
	}
	if !polled {
		t.Logf("note: active died before a mid-run progress poll landed")
	}

	// The standby takes over and finishes the run completely.
	var serr error
	select {
	case serr = <-standbyErr:
	case <-time.After(2 * time.Minute):
		t.Fatalf("standby never finished:\n%s", standbyDiag.String())
	}
	if serr != nil {
		t.Fatalf("standby takeover run: %v\n%s", serr, standbyDiag.String())
	}
	if !strings.Contains(standbyDiag.String(), "taking over eos") {
		t.Fatalf("standby never took over:\n%s", standbyDiag.String())
	}
	if standbyOut.String() != want {
		t.Errorf("standby-merged figures differ from single-process oracle\n--- got ---\n%s--- want ---\n%s", standbyOut.String(), want)
	}
	raw, err := os.ReadFile(so.gapReport)
	if err != nil {
		t.Fatalf("gap report not written: %v", err)
	}
	var report struct {
		Complete bool             `json:"complete"`
		Missing  []map[string]any `json:"missing"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("gap report is not JSON: %v\n%s", err, raw)
	}
	if !report.Complete || len(report.Missing) != 0 {
		t.Errorf("takeover run's gap report claims gaps:\n%s", raw)
	}
}

// TestCoordinateHalvesMerge is the multi-machine recipe at unit scale: two
// coordinate runs, each over one half of the range into its own file://
// store, joined by coord.Join as cmd/merge joins them, render figures
// byte-identical to a single-process crawl of the whole range.
func TestCoordinateHalvesMerge(t *testing.T) {
	srv := newEOSServer(t, 45)
	head := eosHead(t, srv.URL)
	want := oracle(t, srv.URL, head)

	dir := t.TempDir()
	ctx := context.Background()
	var stores []blobstore.Store
	for i, half := range [][2]int64{{1, head / 2}, {head/2 + 1, head}} {
		o := testOpts(srv.URL, "file://"+filepath.Join(dir, fmt.Sprintf("half-%d", i)))
		o.from, o.to, o.shards = half[0], half[1], 2
		var out, diag bytes.Buffer
		if err := run(ctx, o, &out, &diag); err != nil {
			t.Fatalf("coordinate over [%d, %d]: %v\n%s", half[0], half[1], err, diag.String())
		}
		if out.String() == want {
			t.Fatalf("half [%d, %d] already renders the whole range's figures", half[0], half[1])
		}
		store, err := blobstore.Resolve(o.store)
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, store)
	}
	var log bytes.Buffer
	merged, err := coord.Join(ctx, stores, &log)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 || !strings.Contains(log.String(), "eos: 4 shard(s)") {
		t.Fatalf("join of two 2-shard runs merged %d chain(s):\n%s", len(merged), log.String())
	}
	if got := core.Figures(merged[0]); got != want {
		t.Errorf("two half-range runs merged differ from single-process oracle\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if got, wantCov := merged[0].Covered(), (core.BlockRange{From: 1, To: head}); got != wantCov {
		t.Errorf("merged covered %s, want %s", got, wantCov)
	}
}

// triggerWriter collects diagnostics and calls fire once, the first time
// needle has been written.
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
	srv := delayProxy(t, inner, 20*time.Millisecond)

	o := testOpts(srv.URL, "file://"+filepath.Join(t.TempDir(), "store"))
	o.shards = 1

	// Interrupt mid-slice: as soon as the worker reports its first
	// checkpoint, with most of the slice still to crawl.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	diag1 := &triggerWriter{needle: "checkpoint:", fire: cancel}
	var out1 bytes.Buffer
	if err := run(ctx, o, &out1, diag1); err == nil {
		t.Fatalf("interrupted run exited clean:\n%s", diag1.String())
	}
	if ctx.Err() == nil {
		t.Fatalf("run failed before any checkpoint was written:\n%s", diag1.String())
	}
	if !strings.Contains(diag1.String(), "worker: ") || !strings.Contains(diag1.String(), "context canceled") {
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

	var out2, diag2 bytes.Buffer
	if err := run(context.Background(), o, &out2, &diag2); err != nil {
		t.Fatalf("rerun: %v\n%s", err, diag2.String())
	}
	if !strings.Contains(diag2.String(), "resuming:") {
		t.Errorf("rerun's worker did not resume from the checkpoint:\n%s", diag2.String())
	}
	if out2.String() != want {
		t.Errorf("resumed figures differ from single-process oracle\n--- got ---\n%s--- want ---\n%s", out2.String(), want)
	}
}

// TestNonPositiveLeaseTTLRefusedBeforeAnyDial: a standby with -lease-ttl 0
// used to claim leases born expired and poll the store with no pause between
// rounds, and -shards 0 used to win the run lease, load run state and pin
// head before the cut refused it. run refuses both values as usage errors
// before it dials the endpoint (there is none listening here) or touches
// the store.
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
	if code := workerMain("{torn", io.Discard); code != 2 {
		t.Fatalf("bad payload exit code %d, want 2", code)
	}
}
