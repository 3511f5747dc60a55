package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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
