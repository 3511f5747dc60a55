package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
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

	"repro/internal/archive"
	"repro/internal/chain"
	"repro/internal/cli"
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

// TestServeInterruptMidIngest cancels while the crawl is still running; the
// server must drain what it has, report the interruption, and exit cleanly.
func TestServeInterruptMidIngest(t *testing.T) {
	sim := newEOSSim(t, 200)
	o := serveOpts{
		ArchiveFlags: cli.ArchiveFlags{From: 1},
		eos:          sim.URL,
		epoch:        10 * time.Millisecond,
		workers:      1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o.addr = "127.0.0.1:0"
	o.ready = func(string) { cancel() } // interrupt the moment it listens — likely mid-crawl
	if err := run(ctx, o, slog.New(slog.DiscardHandler)); err != nil {
		t.Fatalf("interrupted run returned error: %v", err)
	}
}

func TestServeNothingConfigured(t *testing.T) {
	err := run(context.Background(), serveOpts{addr: "127.0.0.1:0"}, slog.New(slog.DiscardHandler))
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

	var diag bytes.Buffer
	err = run(context.Background(), serveOpts{
		addr:         "127.0.0.1:0",
		ArchiveFlags: cli.ArchiveFlags{Replay: root},
		epoch:        time.Millisecond,
	}, slog.New(slog.NewTextHandler(&diag, nil)))
	if !errors.Is(err, archive.ErrCorrupt) {
		t.Fatalf("err = %v, want the second archive's corruption", err)
	}
	for _, rec := range []string{"msg=replayed ", "msg=drained "} {
		if strings.Contains(diag.String(), rec) {
			t.Fatalf("a feed ran although an archive was corrupt:\n%s", diag.String())
		}
	}
}

// TestServeReplayRefusesBrokenArchives: serve -replay refuses, before any
// feed starts, an archive with holes (an interrupted crawl that was never
// resumed), as report -replay does, and one whose segment was written
// before segments were cut into gzip members.
func TestServeReplayRefusesBrokenArchives(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(t *testing.T, dir string)
		want    []string
		corrupt bool
	}{
		{"with holes", func(t *testing.T, dir string) {
			writeArchive(t, dir, 1, 2, 3, 4, 7, 8)
		}, []string{"is incomplete: 6 blocks in [1, 8] — rerun the crawl with the same -archive"}, false},
		{"written before members", func(t *testing.T, dir string) {
			writeArchive(t, dir, 1, 2, 3, 4)
			wholeObjectSegment(t, dir)
		}, []string{"segment-000001.gz: its first gzip member states no length", "re-archive"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			// A served archive keeps run answering until ctx ends.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var diag bytes.Buffer
			err := run(ctx, serveOpts{
				addr:         "127.0.0.1:0",
				ArchiveFlags: cli.ArchiveFlags{Replay: dir},
				epoch:        time.Millisecond,
			}, slog.New(slog.NewTextHandler(&diag, nil)))
			if errors.Is(err, archive.ErrCorrupt) != tc.corrupt {
				t.Fatalf("err = %v, corrupt: %v, want %v", err, errors.Is(err, archive.ErrCorrupt), tc.corrupt)
			}
			for _, want := range tc.want {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %v, want it to say %q", err, want)
				}
			}
			if strings.Contains(diag.String(), "msg=replayed ") {
				t.Fatalf("a feed ran on a broken archive:\n%s", diag.String())
			}
		})
	}
}

// writeArchive archives one EOS block per block number at dir.
func writeArchive(t *testing.T, dir string, nums ...int64) {
	t.Helper()
	w, err := archive.NewWriter(archive.WriterConfig{Dir: dir, Chain: "eos"})
	if err != nil {
		t.Fatal(err)
	}
	for _, num := range nums {
		block := fmt.Sprintf(`{"block_num":%d,"id":"i","previous":"p","timestamp":"2019-10-01T00:00:00.500","producer":"bp","transactions":null}`, num)
		if err := w.Append(num, []byte(block)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// wholeObjectSegment rewrites dir's first segment as one gzip object without
// the length subfield, as segments were written before they were cut into
// members, and re-stamps its size and checksum in the manifest.
func wholeObjectSegment(t *testing.T, dir string) {
	t.Helper()
	seg := filepath.Join(dir, "segment-000001.gz")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var obj bytes.Buffer
	zw := gzip.NewWriter(&obj)
	zw.Write(stream)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, obj.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var man archive.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(obj.Bytes())
	man.Segments[0].SHA256, man.Segments[0].CompBytes = hex.EncodeToString(sum[:]), int64(obj.Len())
	if raw, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, raw, 0o644); err != nil {
		t.Fatal(err)
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

// TestServeDebugListener: pprof answers on -debug-addr — the index and a
// one-second CPU profile — and never on the API listener, which answers
// /debug/pprof/ with 404.
func TestServeDebugListener(t *testing.T) {
	sim := newEOSSim(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	api := make(chan string, 1)
	o := serveOpts{
		addr: "127.0.0.1:0", debugAddr: "127.0.0.1:0",
		ArchiveFlags: cli.ArchiveFlags{From: 1},
		eos:          sim.URL,
		epoch:        10 * time.Millisecond,
		workers:      1,
		ready:        func(base string) { api <- base },
	}
	diag := &lockedBuffer{}
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, o, slog.New(slog.NewTextHandler(diag, nil))) }()
	var apiBase string
	select {
	case apiBase = <-api:
	case err := <-errc:
		t.Fatalf("run ended before listening: %v", err)
	}
	// The debug listener opens first, so its record precedes the API's.
	_, debugBase, ok := strings.Cut(diag.String(), `msg="serving debug" url=`)
	if !ok {
		t.Fatalf("no debug serving record:\n%s", diag.String())
	}
	debugBase, _, _ = strings.Cut(debugBase, "\n")

	get := func(url string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	if code, _ := get(apiBase + "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("API listener answers /debug/pprof/ with %d, want 404", code)
	}
	if code, body := get(debugBase + "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("debug listener answers /debug/pprof/ with %d: %s", code, body)
	}
	if code, body := get(debugBase + "/debug/pprof/profile?seconds=1"); code != http.StatusOK || !bytes.HasPrefix(body, []byte{0x1f, 0x8b}) {
		t.Errorf("CPU profile: %d, body starts % x, want gzip", code, body[:min(len(body), 8)])
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// lockedBuffer is a log sink a running command and its test share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}
