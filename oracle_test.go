package repro

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/explorer"
	"repro/internal/rpcserve"
	"repro/internal/testkit"
	"repro/internal/workload"
	"repro/internal/wsrpc"
)

// bin holds the commands TestMain builds: every path below runs the real
// binaries as subprocesses, so what it proves is what an operator runs.
var bin string

// fleet is what a crawler fleet ships. The linker's view of TestLayering's
// rule: none of it links a simulator package.
var (
	fleet     = []string{"./cmd/crawl", "./cmd/coordinate", "./cmd/merge", "./cmd/serve"}
	simulator = regexp.MustCompile(`^repro/internal/(eos|tezos|xrp|workload|rpcserve|explorer|pipeline)$`)
)

// TestMain builds crawl, report, coordinate, merge and serve once — with
// the race detector when this test binary has it — and refuses to run the
// tests if a fleet binary links the simulator.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "repro-bin-")
	if err == nil {
		bin = dir
		err = buildCommands(dir)
	}
	code := 1
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func buildCommands(dir string) error {
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	if testkit.Race {
		args = append(args, "-race")
	}
	args = append(append(args, fleet...), "./cmd/report")
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	deps, err := exec.Command("go", append([]string{"list", "-deps"}, fleet...)...).Output()
	if err != nil {
		return fmt.Errorf("go list -deps %s: %v", strings.Join(fleet, " "), err)
	}
	var linked []string
	for _, pkg := range strings.Fields(string(deps)) {
		if simulator.MatchString(pkg) {
			linked = append(linked, pkg)
		}
	}
	if len(linked) > 0 {
		return fmt.Errorf("fleet binaries %s link simulator packages: %s", strings.Join(fleet, " "), strings.Join(linked, " "))
	}
	return nil
}

// chains serves each chain's calibrated scenario at cmd/chainsim's default
// scale and seed: EOS 318 blocks, Tezos 166, XRP 102.
var chains = []struct {
	name  string
	build func() (http.Handler, int64, error)
}{
	{"eos", func() (http.Handler, int64, error) {
		s, err := workload.BuildEOS(workload.EOSOptions{Scale: 50_000, Seed: 1})
		if err != nil {
			return nil, 0, err
		}
		s.Run()
		return rpcserve.NewEOSServer(s.Chain), int64(s.Chain.HeadNum()), nil
	}},
	{"tezos", func() (http.Handler, int64, error) {
		s, err := workload.BuildTezos(workload.TezosOptions{Scale: 800, Seed: 1})
		if err != nil {
			return nil, 0, err
		}
		if _, err := s.Run(); err != nil {
			return nil, 0, err
		}
		return rpcserve.NewTezosServer(s.Chain), s.Chain.HeadLevel(), nil
	}},
	{"xrp", func() (http.Handler, int64, error) {
		s, err := workload.BuildXRP(workload.XRPOptions{Scale: 20_000, Seed: 1})
		if err != nil {
			return nil, 0, err
		}
		s.Run()
		return rpcserve.NewXRPServer(s.State), s.State.HeadIndex(), nil
	}},
}

// TestServedHistoryDigest pins every byte the simulator serves a crawler at
// cmd/chainsim's default scales: one SHA-256 per chain over every EOS
// get_block body, every Tezos block body, every expanded XRP ledger response
// read over the WebSocket, and the explorer's /v2/exchanges body. A change
// to the simulator that moves one RNG draw moves every later block, and
// fails here before any figure has been compared.
func TestServedHistoryDigest(t *testing.T) {
	want := map[int64]map[string]string{
		1: {
			"eos":      "618b2c66211ea4a5438e3bad15e201c74028649a25800af73fd116465bf247cb",
			"tezos":    "ada183708c9a9d4c75423ac60d744f16c6af2b9a326addbb3e65cf9cd81b2295",
			"xrp":      "a3093edde2c8490ebe49684ee0ea6c8720393a8ac2273bbbacd2b40f86603aba",
			"explorer": "eac71a49545e06b7259fd61e8eb7a7ee2dc59f6073c4bb2a98f0957ed18584dd",
		},
		2: {
			"eos":      "d4b9048f1dbd35caa1a7a2fac3a4c572b0a4c02f8fcca5822bfd01ab9785a3d3",
			"tezos":    "f9c7c0ec89b2ac10010c99bccf8458fe9ad202c11f5af4a667164921e4bffa42",
			"xrp":      "fa9409b2bca5676efc54b80c6daab33179572144db757e6a27592e9e18891d76",
			"explorer": "71e0677d938fa133fce3d4f99667d442720b32206bbf8bf354eee6c20c95bcf0",
		},
	}
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			got := servedDigests(t, seed)
			for _, name := range []string{"eos", "tezos", "xrp", "explorer"} {
				if got[name] != want[seed][name] {
					t.Errorf("%s at seed %d served %s, want %s", name, seed, got[name], want[seed][name])
				}
			}
		})
	}
}

// servedDigests builds the three histories at seed and hashes what their
// handlers answer to the requests the crawlers send.
func servedDigests(t *testing.T, seed int64) map[string]string {
	get := func(h http.Handler, method, path, body string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s %s: status %d", method, path, body, rec.Code)
		}
		return rec.Body.Bytes()
	}
	out := map[string]string{}

	e, err := workload.BuildEOS(workload.EOSOptions{Scale: 50_000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	eosSrv, sum := rpcserve.NewEOSServer(e.Chain), sha256.New()
	for n := uint32(1); n <= e.Chain.HeadNum(); n++ {
		sum.Write(get(eosSrv, "POST", "/v1/chain/get_block", fmt.Sprintf(`{"block_num_or_id":%d}`, n)))
	}
	out["eos"] = hex.EncodeToString(sum.Sum(nil))

	z, err := workload.BuildTezos(workload.TezosOptions{Scale: 800, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := z.Run(); err != nil {
		t.Fatal(err)
	}
	tezosSrv, sum := rpcserve.NewTezosServer(z.Chain), sha256.New()
	for level := int64(1); level <= z.Chain.HeadLevel(); level++ {
		sum.Write(get(tezosSrv, "GET", fmt.Sprintf("/chains/main/blocks/%d", level), ""))
	}
	out["tezos"] = hex.EncodeToString(sum.Sum(nil))

	x, err := workload.BuildXRP(workload.XRPOptions{Scale: 20_000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	x.Run()
	srv := httptest.NewServer(rpcserve.NewXRPServer(x.State))
	defer srv.Close()
	conn, err := wsrpc.Dial("ws" + strings.TrimPrefix(srv.URL, "http"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sum = sha256.New()
	for index := int64(1); index <= x.State.HeadIndex(); index++ {
		req := fmt.Sprintf(`{"command":"ledger","expand":true,"id":%d,"ledger_index":%d,"transactions":true}`, index, index)
		if err := conn.WriteMessage(wsrpc.OpText, []byte(req)); err != nil {
			t.Fatal(err)
		}
		_, msg, err := conn.ReadMessageInto(nil)
		if err != nil {
			t.Fatal(err)
		}
		sum.Write(msg)
	}
	out["xrp"] = hex.EncodeToString(sum.Sum(nil))

	dir := explorer.NewDirectory(x.State)
	for a, username := range x.Usernames {
		dir.Register(a, username)
	}
	body := get(explorer.NewServer(dir), "GET", "/v2/exchanges", "")
	digest := sha256.Sum256(body)
	out["explorer"] = hex.EncodeToString(digest[:])
	return out
}

// TestEveryPathPrintsThePaper is the byte-identity contract of every path
// that prints the paper's figures, on every chain: the single-process crawl
// is the oracle, and an archive replayed at any worker count or range, a
// crawl resumed after an interrupt, a coordinated run at one or three
// shards, a fleet of two half-range runs joined by merge, a run under store
// faults with a worker SIGKILLed, a standby finishing a SIGKILLed
// coordinator's run and a drained serve all print the same bytes.
func TestEveryPathPrintsThePaper(t *testing.T) {
	paths := []struct {
		name string
		run  func(*testing.T, *chainRun)
	}{
		{"archive", archivePath},
		{"interrupted-archive", interruptedArchivePath},
		{"coordinate", coordinatePath},
		{"fleet", fleetPath},
		{"chaos", chaosPath},
		{"takeover", takeoverPath},
		{"serve", servePath},
	}
	for _, ch := range chains {
		t.Run(ch.name, func(t *testing.T) {
			t.Parallel()
			h, head, err := ch.build()
			if err != nil {
				t.Fatal(err)
			}
			c := &chainRun{name: ch.name, handler: h, head: head}
			if !t.Run("oracle", func(t *testing.T) {
				url, _ := c.serve(t, nil)
				out, _ := runCmd(t, "crawl", "-chain", c.name, "-endpoint", url)
				c.want = figures(t, c.name, out)
			}) {
				return
			}
			for _, p := range paths {
				t.Run(p.name, func(t *testing.T) {
					t.Parallel()
					p.run(t, c)
				})
			}
		})
	}
}

// chainRun is one chain under test: its endpoint's handler, its head and
// the oracle's figures, from "--- <chain> figures ---" on.
type chainRun struct {
	name    string
	handler http.Handler
	head    int64
	want    string
}

// serve starts an endpoint for the chain on loopback, its listener wrapped
// by wrap when set, and returns its URL and its Close, which the test's
// cleanup also calls.
func (c *chainRun) serve(t *testing.T, wrap func(net.Listener) net.Listener) (string, func()) {
	srv := httptest.NewUnstartedServer(c.handler)
	if wrap != nil {
		srv.Listener = wrap(srv.Listener)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	if c.name == "xrp" {
		return "ws" + strings.TrimPrefix(srv.URL, "http"), srv.Close
	}
	return srv.URL, srv.Close
}

// archivePath: the crawl tees an archive, the endpoint goes away, and the
// replay prints the same bytes at one worker and at three, and over a range
// that is a superset of the archive.
func archivePath(t *testing.T, c *chainRun) {
	url, closeEndpoint := c.serve(t, nil)
	root := t.TempDir()
	out, _ := runCmd(t, "crawl", "-chain", c.name, "-endpoint", url, "-archive", "file://"+filepath.Join(root, c.name))
	same(t, "crawl -archive", figures(t, c.name, out), c.want)
	closeEndpoint()
	for _, args := range [][]string{
		{"-replay", "file://" + root},
		{"-replay", "file://" + root, "-from", "1", "-to", "99999999"},
		{"-replay", root, "-workers", "1"},
		{"-replay", root, "-workers", "3"},
	} {
		out, _ := runCmd(t, "report", args...)
		same(t, "report "+strings.Join(args, " "), out, c.want)
	}
}

// interruptedArchivePath: a crawl SIGINTed mid-run keeps what it archived,
// and the rerun fetches only the rest and prints the whole figures.
func interruptedArchivePath(t *testing.T, c *chainRun) {
	arch := "file://" + filepath.Join(t.TempDir(), c.name)
	interrupt := make(chan struct{})
	url, _ := c.serve(t, func(ln net.Listener) net.Listener {
		return &throttle{Listener: ln, after: c.head / 3, fire: func() { close(interrupt) }}
	})
	cmd := command(t, "crawl", "-chain", c.name, "-endpoint", url, "-archive", arch)
	var out, diag bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &diag
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var err error
	select {
	case <-interrupt:
		_ = cmd.Process.Signal(os.Interrupt) // a crawl already gone fails the check below
		err = <-done
	case err = <-done:
	}
	if err != nil || !strings.Contains(out.String(), "interrupted") {
		t.Fatalf("first crawl was not interrupted mid-run (exit %v):\n%s%s", err, out.String(), diag.String())
	}

	url, _ = c.serve(t, nil)
	rerun, _ := runCmd(t, "crawl", "-chain", c.name, "-endpoint", url, "-archive", arch)
	same(t, "resumed crawl", figures(t, c.name, rerun), c.want)
	var held, teed int64
	_, line, _ := strings.Cut(rerun, "archive:")
	_, line, _ = strings.Cut(line, "(")
	if n, _ := fmt.Sscanf(line, "%d blocks already held, %d teed", &held, &teed); n != 2 || held == 0 || held+teed != c.head {
		t.Errorf("resumed crawl held %d blocks and teed %d, want some held and %d in all:\n%s", held, teed, c.head, rerun)
	}
}

// coordinatePath: one coordinated run, cut into one slice and into three.
func coordinatePath(t *testing.T, c *chainRun) {
	url, _ := c.serve(t, nil)
	for _, shards := range []string{"1", "3"} {
		out, _ := runCmd(t, "coordinate", "-chain", c.name, "-endpoint", url, "-shards", shards,
			"-store", "file://"+filepath.Join(t.TempDir(), "store"))
		same(t, "coordinate -shards "+shards, out, c.want)
	}
}

// fleetPath: two coordinated runs over the two halves of the chain, each
// into its own store, joined by merge once the endpoint is gone. A store
// alone re-renders what its own run printed.
func fleetPath(t *testing.T, c *chainRun) {
	url, closeEndpoint := c.serve(t, nil)
	dir := t.TempDir()
	var stores, outs []string
	for _, half := range [][2]int64{{1, c.head / 2}, {c.head/2 + 1, c.head}} {
		store := fmt.Sprintf("file://%s/%d-%d", dir, half[0], half[1])
		out, _ := runCmd(t, "coordinate", "-chain", c.name, "-endpoint", url,
			"-from", fmt.Sprint(half[0]), "-to", fmt.Sprint(half[1]), "-shards", "2", "-store", store)
		if out == c.want {
			t.Fatalf("half %v already prints the whole chain's figures", half)
		}
		stores, outs = append(stores, store), append(outs, out)
	}
	closeEndpoint()
	out, diag := runCmd(t, "merge", stores...)
	same(t, "merge of both halves", out, c.want)
	if want := (record{"msg": "merged", "chain": c.name, "shards": "4", "covered": fmt.Sprintf("[1, %d]", c.head)}); !logged(diag, want) {
		t.Errorf("merge did not log %v:\n%s", want, diag)
	}
	again, _ := runCmd(t, "merge", stores[0])
	same(t, "merge of the first half", again, outs[0])
}

// chaosPath: every blob operation rolls a seeded 2 % fault and slice 2's
// first worker SIGKILLs itself after its first checkpoint. The relaunch
// resumes from that checkpoint: faults cost retries, never blocks.
func chaosPath(t *testing.T, c *chainRun) {
	url, _ := c.serve(t, nil)
	dir := t.TempDir()
	gaps := filepath.Join(dir, "gaps.json")
	out, diag := runCmd(t, "coordinate", "-chain", c.name, "-endpoint", url, "-shards", "3",
		"-store", "faulty+file://"+filepath.Join(dir, "store")+"?fault=0.02&fault-seed=7",
		"-checkpoint-every", "5", "-chaos-kill", "2", "-attempts", "8", "-backoff", "50ms",
		"-gap-report", gaps)
	same(t, "coordinate under chaos", out, c.want)
	if !logged(diag, record{"msg": "resuming", "chain": c.name}) {
		t.Errorf("no worker of the run under chaos resumed from its checkpoint:\n%s", diag)
	}
	if !slices.ContainsFunc(records(diag), func(r record) bool { return strings.HasSuffix(r["err"], "signal: killed") }) {
		t.Errorf("no record of the run under chaos has a SIGKILLed worker in its err:\n%s", diag)
	}
	complete(t, c, gaps)
}

// takeoverPath: the active coordinator SIGKILLs itself and its workers once
// its first slice validates; a standby watching the same faulty store takes
// the run over and prints the figures.
func takeoverPath(t *testing.T, c *chainRun) {
	url, _ := c.serve(t, nil)
	dir := t.TempDir()
	gaps := filepath.Join(dir, "gaps.json")
	common := []string{"-chain", c.name, "-endpoint", url, "-shards", "3", "-lease-ttl", "1s", "-backoff", "50ms",
		"-store", "faulty+file://" + filepath.Join(dir, "store") + "?fault=0.01&fault-seed=11"}
	// The standby starts first: it only ever continues a run, so it waits
	// for the active's. Its claims must outlive the dead active's leases.
	standby := command(t, "coordinate", slices.Concat(common, []string{"-owner", "standby", "-standby", "-attempts", "10", "-gap-report", gaps})...)
	var out, diag bytes.Buffer
	standby.Stdout, standby.Stderr = &out, &diag
	if err := standby.Start(); err != nil {
		t.Fatal(err)
	}
	active := command(t, "coordinate", slices.Concat(common, []string{"-owner", "active", "-chaos-kill-coordinator", "-attempts", "8"})...)
	var activeDiag bytes.Buffer
	active.Stderr = &activeDiag
	if err := active.Run(); err == nil || !strings.Contains(err.Error(), "signal: killed") ||
		!logged(activeDiag.String(), record{"msg": "chaos: SIGKILLing active coordinator and its workers", "chain": c.name}) {
		t.Fatalf("active coordinator exit: %v, want its own SIGKILL\n%s", err, activeDiag.String())
	}
	if err := standby.Wait(); err != nil {
		t.Fatalf("standby: %v\n%s", err, diag.String())
	}
	if !logged(diag.String(), record{"msg": "taking over", "chain": c.name, "owner": "standby"}) {
		t.Fatalf("standby never took over:\n%s", diag.String())
	}
	same(t, "standby after takeover", out.String(), c.want)
	complete(t, c, gaps)
}

// servePath: serve crawls the chain live, teeing an archive, and its
// drained /v1/figures is the oracle's summary block; serve -replay over that
// archive, with the endpoint gone, serves the same bytes.
func servePath(t *testing.T, c *chainRun) {
	url, closeEndpoint := c.serve(t, nil)
	summary := c.want[:strings.Index(c.want, "\n\n")+1]
	root := t.TempDir()

	live := startServe(t, "-"+c.name, url, "-archive", root)
	if resp := get(t, live.url+"/healthz"); resp.StatusCode != http.StatusOK ||
		resp.Header.Get("X-Serve-Epoch") == "" || resp.Header.Get("X-Serve-Published") == "" {
		t.Errorf("/healthz mid-ingest: %d, headers %v", resp.StatusCode, resp.Header)
	}
	live.waitDrained(t)
	var sum struct {
		Blocks  int64 `json:"blocks"`
		Drained bool  `json:"drained"`
		Epoch   int64 `json:"epoch"`
	}
	if body := get(t, live.url+"/v1/summary/"+c.name).body; json.Unmarshal(body, &sum) != nil || sum.Blocks != c.head || !sum.Drained || sum.Epoch < 1 {
		t.Errorf("/v1/summary/%s = %s, want %d drained blocks", c.name, body, c.head)
	}
	var pct struct {
		Percentiles []struct{ P, Value float64 } `json:"percentiles"`
	}
	if body := get(t, live.url+"/v1/percentiles/"+c.name+"?p=50,99").body; json.Unmarshal(body, &pct) != nil || len(pct.Percentiles) != 2 {
		t.Errorf("/v1/percentiles/%s?p=50,99 = %s", c.name, body)
	}
	same(t, "live serve /v1/figures", string(get(t, live.url+"/v1/figures").body), summary)
	live.stop(t)
	closeEndpoint()

	replay := startServe(t, "-replay", root)
	replay.waitDrained(t)
	same(t, "serve -replay /v1/figures", string(get(t, replay.url+"/v1/figures").body), summary)
	replay.stop(t)
}

// command is one of the built commands, killed if it outlives the test's
// patience.
func command(t *testing.T, name string, args ...string) *exec.Cmd {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return exec.CommandContext(ctx, filepath.Join(bin, name), args...)
}

// runCmd runs a command to a clean exit and returns its stdout and stderr.
func runCmd(t *testing.T, name string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := command(t, name, args...)
	var out, diag bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &diag
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, diag.String())
	}
	return out.String(), diag.String()
}

// figures cuts the deterministic figures out of a crawl's output.
func figures(t *testing.T, chain, out string) string {
	t.Helper()
	i := strings.Index(out, "--- "+chain+" figures ---")
	if i < 0 {
		t.Fatalf("no %s figures in:\n%s", chain, out)
	}
	return out[i:]
}

// same fails the test unless got is want byte for byte, naming the first
// line that differs.
func same(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Errorf("%s differs from the oracle at line %d:\n got: %q\nwant: %q", what, i+1, g[i], w[i])
			return
		}
	}
	t.Errorf("%s prints %d lines, the oracle %d", what, len(g), len(w))
}

// complete fails the test unless the gap report at path covers the whole
// chain with nothing missing and nothing failed.
func complete(t *testing.T, c *chainRun, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r coord.GapReport
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("gap report is not JSON: %v\n%s", err, raw)
	}
	if !r.Complete || r.Chain != c.name || r.From != 1 || r.To != c.head || len(r.Missing) != 0 || len(r.Failures) != 0 {
		t.Errorf("gap report of a finished run over [1, %d]:\n%s", c.head, raw)
	}
}

// throttle is a listener whose connections count the writes they make.
// Past the after-th it calls fire, once, and holds every write for 20 ms,
// so a client stopped at that moment cannot finish first.
type throttle struct {
	net.Listener
	after  int64
	fire   func()
	writes atomic.Int64
	once   sync.Once
}

func (l *throttle) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return throttledConn{conn, l}, nil
}

type throttledConn struct {
	net.Conn
	l *throttle
}

func (c throttledConn) Write(p []byte) (int, error) {
	if c.l.writes.Add(1) > c.l.after {
		c.l.once.Do(c.l.fire)
		time.Sleep(20 * time.Millisecond)
	}
	return c.Conn.Write(p)
}

// served is a running serve command.
type served struct {
	url  string
	cmd  *exec.Cmd
	out  bytes.Buffer // stdout, once the command has exited
	log  bytes.Buffer // stderr after the serving record, once read is closed
	read chan struct{}
}

// startServe runs serve on an ephemeral loopback port and returns once it
// has logged the URL it listens on.
func startServe(t *testing.T, args ...string) *served {
	t.Helper()
	s := &served{cmd: command(t, "serve", append([]string{"-addr", "127.0.0.1:0", "-epoch", "20ms"}, args...)...), read: make(chan struct{})}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	s.cmd.Stdout = &s.out
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewReader(stderr)
	var head strings.Builder
	for s.url == "" {
		line, err := lines.ReadString('\n')
		head.WriteString(line)
		if err != nil {
			s.cmd.Process.Kill()
			s.cmd.Wait()
			t.Fatalf("serve %s never logged its url (%v):\n%s", strings.Join(args, " "), err, head.String())
		}
		if recs := records(line); len(recs) == 1 && recs[0]["msg"] == "serving" {
			s.url = recs[0]["url"]
		}
	}
	go func() {
		io.Copy(&s.log, lines)
		close(s.read)
	}()
	return s
}

// waitDrained polls /v1/status until every feed has drained.
func (s *served) waitDrained(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		var st struct {
			Drained bool `json:"drained"`
		}
		if json.Unmarshal(get(t, s.url+"/v1/status").body, &st) == nil && st.Drained {
			return
		}
	}
	t.Fatal("serve never drained")
}

// stop sends SIGTERM and requires a clean shutdown, with nothing printed on
// stdout.
func (s *served) stop(t *testing.T) {
	t.Helper()
	s.cmd.Process.Signal(syscall.SIGTERM)
	<-s.read
	if err := s.cmd.Wait(); err != nil || !logged(s.log.String(), record{"msg": "shutdown"}) || s.out.Len() != 0 {
		t.Errorf("serve after SIGTERM: %v\nstdout:\n%s\nstderr:\n%s", err, s.out.String(), s.log.String())
	}
}

type response struct {
	*http.Response
	body []byte
}

func get(t *testing.T, url string) response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return response{resp, body}
}

// record is one log/slog text record: its attributes by key, msg among them.
type record map[string]string

// records parses the log/slog text records in log, one a line.
func records(log string) []record {
	var recs []record
	for _, line := range strings.Split(log, "\n") {
		rec := make(record)
		for line != "" {
			key, rest, ok := strings.Cut(line, "=")
			if !ok {
				break
			}
			var val string
			if q, err := strconv.QuotedPrefix(rest); err == nil && rest[0] == '"' {
				val, _ = strconv.Unquote(q)
				rest = rest[len(q):]
			} else {
				val, rest, _ = strings.Cut(rest, " ")
			}
			rec[key] = val
			line = strings.TrimPrefix(rest, " ")
		}
		if len(rec) > 0 {
			recs = append(recs, rec)
		}
	}
	return recs
}

// logged reports whether some record in log carries every attribute of
// want.
func logged(log string, want record) bool {
	return slices.ContainsFunc(records(log), func(rec record) bool {
		for k, v := range want {
			if rec[k] != v {
				return false
			}
		}
		return true
	})
}
