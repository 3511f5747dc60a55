package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/blobstore/s3stub"
	"repro/internal/chain"
	"repro/internal/cli"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/eos"
	"repro/internal/rpcserve"
)

// countingEOSServer serves an EOS chain and records every get_block number
// handed out, cancelling interrupt after the limit-th block — standing in
// for a SIGINT landing mid-crawl.
type countingEOSServer struct {
	srv       *httptest.Server
	mu        sync.Mutex
	fetched   map[int64]int
	served    int
	limit     int
	interrupt context.CancelFunc
}

// openStore resolves a store URL the test itself chose.
func openStore(t *testing.T, location string) blobstore.Store {
	t.Helper()
	store, err := blobstore.Resolve(location)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func newCountingEOSServer(t *testing.T, nBlocks int) *countingEOSServer {
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

	s := &countingEOSServer{fetched: make(map[int64]int)}
	inner := rpcserve.NewEOSServer(c)
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/get_block") {
			body, _ := io.ReadAll(r.Body)
			var req struct {
				Num json.Number `json:"block_num_or_id"`
			}
			json.Unmarshal(body, &req)
			num, _ := req.Num.Int64()
			s.mu.Lock()
			s.fetched[num]++
			s.served++
			if s.limit > 0 && s.served == s.limit && s.interrupt != nil {
				s.interrupt()
			}
			s.mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *countingEOSServer) reset() {
	s.mu.Lock()
	s.fetched = make(map[int64]int)
	s.served = 0
	s.limit = 0
	s.interrupt = nil
	s.mu.Unlock()
}

func (s *countingEOSServer) fetchedNums() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	nums := make([]int64, 0, len(s.fetched))
	for n := range s.fetched {
		nums = append(nums, n)
	}
	return nums
}

// figuresOf cuts the deterministic figures section out of a crawl's output.
func figuresOf(t *testing.T, out string) string {
	t.Helper()
	idx := strings.Index(out, "--- eos figures ---")
	if idx < 0 {
		t.Fatalf("crawl printed no figures section:\n%s", out)
	}
	return out[idx:]
}

// storedSegmentBytes sums the object sizes of an archive's segments.
func storedSegmentBytes(t *testing.T, location string) int64 {
	t.Helper()
	store := openStore(t, location)
	segs, err := store.List(context.Background(), "segment-")
	if err != nil {
		t.Fatal(err)
	}
	var stored int64
	for _, key := range segs {
		size, err := store.Stat(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		stored += size
	}
	return stored
}

// TestCrawlInterruptResume is the command-level acceptance path of the one
// resume mechanism: the archive is the checkpoint. Wherever the first run
// is cut — cancelled after k served blocks, killed hard with a segment
// still open, or dead before it resolved its range — rerunning the same
// command never asks the server for a block the archive held, prints
// figures byte-identical to an uninterrupted crawl's, leaves the archive
// covering the whole range, and reports as its gzip footprint the bytes the
// store holds; a third run fetches nothing and prints the same bytes.
func TestCrawlInterruptResume(t *testing.T) {
	const total = 40
	s := newCountingEOSServer(t, total)
	base := crawlOpts{
		ArchiveFlags: cli.ArchiveFlags{From: 1},
		chain:        "eos", endpoint: s.srv.URL,
		workers: 2, ingest: 2, buffer: 8,
	}
	var oracle bytes.Buffer
	if err := run(context.Background(), base, &oracle); err != nil {
		t.Fatalf("uninterrupted crawl: %v\n%s", err, oracle.String())
	}
	want := figuresOf(t, oracle.String())

	// cancelAfter is a SIGINT landing as the k-th block is served.
	cancelAfter := func(k int) func(*testing.T, crawlOpts) {
		return func(t *testing.T, opts crawlOpts) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s.mu.Lock()
			s.limit, s.interrupt = k, cancel
			s.mu.Unlock()
			var out bytes.Buffer
			if err := run(ctx, opts, &out); err != nil {
				t.Fatalf("interrupted run returned error: %v\n%s", err, out.String())
			}
			if !strings.Contains(out.String(), "rerun with the same -archive") {
				t.Fatalf("interrupted run printed no resume hint:\n%s", out.String())
			}
			if strings.Contains(out.String(), "figures ---") {
				t.Fatalf("interrupted run rendered figures over a partial crawl:\n%s", out.String())
			}
		}
	}
	cuts := []struct {
		name      string
		interrupt func(*testing.T, crawlOpts)
	}{
		{"cancel after 1 block", cancelAfter(1)},
		{"cancel after 15 blocks", cancelAfter(15)},
		{"cancel after 35 blocks", cancelAfter(35)},
		{"hard kill with a segment open", func(t *testing.T, opts crawlOpts) {
			// What SIGKILL leaves: the segments that rotated are in the
			// manifest, the open one — here blocks 32 and 31 — is gone, and
			// nothing was finalized. The writer is dropped without Close.
			w, err := archive.NewWriter(archive.WriterConfig{Dir: opts.Archive, Chain: "eos", SegmentBlocks: 4})
			if err != nil {
				t.Fatal(err)
			}
			client := collect.NewEOSClient(s.srv.URL)
			for num := int64(total); num > total-10; num-- {
				raw, err := client.FetchBlock(context.Background(), num)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Append(num, raw); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"endpoint dead before the range resolved", func(t *testing.T, opts crawlOpts) {
			opts.endpoint = "http://127.0.0.1:1"
			if err := run(context.Background(), opts, io.Discard); err == nil {
				t.Fatal("crawl against a dead endpoint succeeded")
			}
		}},
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			opts := base
			opts.Archive = filepath.Join(t.TempDir(), "eos-archive")
			s.reset()
			tc.interrupt(t, opts)

			// Whatever the cut left must open cleanly; it defines what the
			// rerun may not refetch.
			held, err := archive.OpenWith(opts.Archive, archive.OpenOptions{})
			if err != nil {
				t.Fatalf("interrupted archive is unreadable: %v", err)
			}
			if held.Covers(1, total) {
				t.Fatal("first run archived everything — the cut never landed")
			}

			s.reset()
			var out2 bytes.Buffer
			if err := run(context.Background(), opts, &out2); err != nil {
				t.Fatalf("resumed run failed: %v\n%s", err, out2.String())
			}
			fetched := s.fetchedNums()
			for _, num := range fetched {
				if held.Covers(num, num) {
					t.Errorf("resumed run refetched block %d, which the archive held", num)
				}
			}
			if got := int64(len(fetched)); got != total-held.Blocks() {
				t.Errorf("resumed run fetched %d blocks, want the %d the archive lacked", got, total-held.Blocks())
			}
			if got := figuresOf(t, out2.String()); got != want {
				t.Errorf("resumed figures differ from an uninterrupted crawl\n--- resumed ---\n%s--- uninterrupted ---\n%s", got, want)
			}
			rd, err := archive.OpenWith(opts.Archive, archive.OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rd.Covers(1, total) {
				t.Fatalf("resumed archive covers [%d, %d] with %d blocks, want all of [1, %d]", rd.From(), rd.To(), rd.Blocks(), total)
			}
			stored := storedSegmentBytes(t, opts.Archive)
			if gz, _ := gzipLine(t, out2.String()); gz != stored || stored == 0 {
				t.Errorf("resumed run printed gzip bytes %d, store holds %d", gz, stored)
			}

			// Nothing is left to do: a third run fetches zero blocks and
			// prints the same figures and footprint.
			s.reset()
			var out3 bytes.Buffer
			if err := run(context.Background(), opts, &out3); err != nil {
				t.Fatalf("third run failed: %v\n%s", err, out3.String())
			}
			if nums := s.fetchedNums(); len(nums) != 0 {
				t.Errorf("third run refetched %v from a complete archive", nums)
			}
			if got := figuresOf(t, out3.String()); got != want {
				t.Errorf("third run's figures differ\n--- third ---\n%s--- uninterrupted ---\n%s", got, want)
			}
			if gz, _ := gzipLine(t, out3.String()); gz != stored {
				t.Errorf("third run printed gzip bytes %d, store holds %d", gz, stored)
			}
		})
	}
}

// TestCrawlInterruptWithoutCheckpointFails: without -archive a plain crawl
// writes nothing durable, so an interrupted run must report the lost
// progress as an error instead of exiting 0 with a resume hint.
func TestCrawlInterruptWithoutCheckpointFails(t *testing.T) {
	s := newCountingEOSServer(t, 40)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.mu.Lock()
	s.limit, s.interrupt = 10, cancel
	s.mu.Unlock()
	var out bytes.Buffer
	err := run(ctx, crawlOpts{ArchiveFlags: cli.ArchiveFlags{From: 1}, chain: "eos", endpoint: s.srv.URL, workers: 2, ingest: 1, buffer: 8}, &out)
	if err == nil {
		t.Fatalf("interrupted archive-less run exited clean:\n%s", out.String())
	}
	if strings.Contains(out.String(), "to resume") {
		t.Fatalf("archive-less run suggests resuming from a record that was never written:\n%s", out.String())
	}
}

// TestCrawlArchiveReplayDeterminism: a crawl with -archive leaves a
// replayable archive whose offline replay renders the exact figures
// section the live crawl printed — the property the CI archive job diffs
// end to end with cmd/report -replay.
func TestCrawlArchiveReplayDeterminism(t *testing.T) {
	const total = 30
	s := newCountingEOSServer(t, total)
	arch := filepath.Join(t.TempDir(), "eos")
	var out bytes.Buffer
	err := run(context.Background(), crawlOpts{
		ArchiveFlags: cli.ArchiveFlags{Archive: arch, From: 1},
		chain:        "eos", endpoint: s.srv.URL,
		workers: 2, ingest: 2, buffer: 8,
	}, &out)
	if err != nil {
		t.Fatalf("archived crawl failed: %v\n%s", err, out.String())
	}
	idx := strings.Index(out.String(), "--- eos figures ---")
	if idx < 0 {
		t.Fatalf("live crawl printed no figures section:\n%s", out.String())
	}
	liveFigures := out.String()[idx:]

	// Replay from disk only: the server is never touched again.
	rd, err := archive.OpenWith(arch, archive.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Covers(1, total) {
		t.Fatalf("archive covers [%d, %d] of %d blocks", rd.From(), rd.To(), rd.Blocks())
	}
	s.reset()
	kit, err := core.NewStatsKit("eos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.IngestCrawl(context.Background(), rd, collect.CrawlConfig{
		From: 1, To: total, Workers: 2,
	}, kit.Decoder, core.IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	if replayFigures := kit.Summarize().Render(); replayFigures != liveFigures {
		t.Fatalf("replayed figures differ from live crawl:\n--- live ---\n%s\n--- replay ---\n%s", liveFigures, replayFigures)
	}
	if nums := s.fetchedNums(); len(nums) != 0 {
		t.Fatalf("replay hit the network for blocks %v", nums)
	}
}

// TestCrawlArchiveCrossBackendDeterminism: the same crawl archived to a
// bare directory path, a mem:// store and an S3-compatible stub produces
// byte-identical live figures, and each archive replays to those same
// bytes — the storage backend is invisible in every figure.
func TestCrawlArchiveCrossBackendDeterminism(t *testing.T) {
	const total = 30
	s := newCountingEOSServer(t, total)
	stub := s3stub.New()
	defer stub.Close()
	locations := map[string]string{
		"file": filepath.Join(t.TempDir(), "eos"),
		"mem":  "mem://crawl-xbackend/eos",
		"s3":   stub.URL("crawls", "eos"),
	}

	figures := make(map[string]string, len(locations))
	for backend, loc := range locations {
		s.reset()
		var out bytes.Buffer
		err := run(context.Background(), crawlOpts{
			ArchiveFlags: cli.ArchiveFlags{Archive: loc, From: 1},
			chain:        "eos", endpoint: s.srv.URL,
			workers: 2, ingest: 2, buffer: 8,
		}, &out)
		if err != nil {
			t.Fatalf("%s: archived crawl failed: %v\n%s", backend, err, out.String())
		}
		idx := strings.Index(out.String(), "--- eos figures ---")
		if idx < 0 {
			t.Fatalf("%s: live crawl printed no figures section:\n%s", backend, out.String())
		}
		figures[backend] = out.String()[idx:]

		// One deflate per payload: an archived crawl's footprint line is the
		// bytes its store now holds, not a second compression of the stream.
		store := openStore(t, loc)
		segs, err := store.List(context.Background(), "segment-")
		if err != nil {
			t.Fatalf("%s: listing segments: %v", backend, err)
		}
		var stored int64
		for _, key := range segs {
			size, err := store.Stat(context.Background(), key)
			if err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			stored += size
		}
		if gz, _ := gzipLine(t, out.String()); gz != stored || stored == 0 {
			t.Fatalf("%s: printed gzip bytes %d, store holds %d in %d segments", backend, gz, stored, len(segs))
		}
	}
	if figures["mem"] != figures["file"] || figures["s3"] != figures["file"] {
		t.Fatalf("live figures differ across backends:\n--- file ---\n%s\n--- mem ---\n%s\n--- s3 ---\n%s",
			figures["file"], figures["mem"], figures["s3"])
	}

	// Every backend's archive replays to the same bytes the live crawls
	// printed — and without touching the chain endpoint.
	s.reset()
	for backend, loc := range locations {
		rd, err := archive.OpenWith(loc, archive.OpenOptions{})
		if err != nil {
			t.Fatalf("%s: opening archive: %v", backend, err)
		}
		if !rd.Covers(1, total) {
			t.Fatalf("%s: archive covers [%d, %d] of %d blocks", backend, rd.From(), rd.To(), rd.Blocks())
		}
		kit, err := core.NewStatsKit("eos", chain.ObservationStart, 6*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := core.IngestCrawl(context.Background(), rd, collect.CrawlConfig{
			From: 1, To: total, Workers: 2,
		}, kit.Decoder, core.IngestConfig{}); err != nil {
			t.Fatalf("%s: replay: %v", backend, err)
		}
		if got := kit.Summarize().Render(); got != figures["file"] {
			t.Fatalf("%s: replayed figures differ from live:\n--- live ---\n%s\n--- replay ---\n%s", backend, figures["file"], got)
		}
	}
	if nums := s.fetchedNums(); len(nums) != 0 {
		t.Fatalf("replay hit the network for blocks %v", nums)
	}

	// Without -archive nothing else deflates the payloads, so the stream's
	// own sizer still fills the line.
	var out bytes.Buffer
	if err := run(context.Background(), crawlOpts{
		ArchiveFlags: cli.ArchiveFlags{From: 1},
		chain:        "eos", endpoint: s.srv.URL,
		workers: 2, ingest: 2, buffer: 8,
	}, &out); err != nil {
		t.Fatalf("plain crawl failed: %v\n%s", err, out.String())
	}
	if gz, raw := gzipLine(t, out.String()); gz <= 0 || gz >= raw {
		t.Fatalf("plain crawl printed gzip bytes %d of raw %d", gz, raw)
	}
}

// gzipLine parses a crawl summary's "gzip bytes:" and "raw bytes:" values.
func gzipLine(t *testing.T, out string) (gz, raw int64) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, "gzip bytes:"); ok {
			fmt.Sscan(v, &gz)
		}
		if v, ok := strings.CutPrefix(line, "raw bytes:"); ok {
			fmt.Sscan(v, &raw)
		}
	}
	if raw == 0 {
		t.Fatalf("no byte accounting in crawl output:\n%s", out)
	}
	return gz, raw
}

// TestCrawlArchiveInterruptResume: an interrupted archived crawl keeps a
// consistent (un-torn) archive, and the resumed run extends it to full
// coverage.
func TestCrawlArchiveInterruptResume(t *testing.T) {
	const total = 40
	s := newCountingEOSServer(t, total)
	dir := t.TempDir()
	arch := filepath.Join(dir, "eos-archive")
	opts := crawlOpts{
		ArchiveFlags: cli.ArchiveFlags{Archive: arch, From: 1},
		chain:        "eos", endpoint: s.srv.URL,
		workers: 2, ingest: 2, buffer: 8,
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.mu.Lock()
	s.limit, s.interrupt = 15, cancel
	s.mu.Unlock()
	var out1 bytes.Buffer
	if err := run(ctx, opts, &out1); err != nil {
		t.Fatalf("interrupted run: %v\n%s", err, out1.String())
	}

	// The interrupted archive must open cleanly — whatever was finalized
	// is intact, nothing is torn.
	rd1, err := archive.OpenWith(arch, archive.OpenOptions{})
	if err != nil {
		t.Fatalf("interrupted archive is unreadable: %v", err)
	}
	if rd1.Blocks() == 0 {
		t.Fatal("interrupted archive holds nothing although blocks were delivered")
	}

	s.reset()
	var out2 bytes.Buffer
	if err := run(context.Background(), opts, &out2); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, out2.String())
	}
	rd2, err := archive.OpenWith(arch, archive.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rd2.Covers(1, total) {
		t.Fatalf("resumed archive covers [%d, %d] with %d blocks, want all of [1, %d]",
			rd2.From(), rd2.To(), rd2.Blocks(), total)
	}
}

// TestCrawlUnknownChain keeps the flag validation honest.
func TestCrawlUnknownChain(t *testing.T) {
	if err := run(context.Background(), crawlOpts{chain: "doge", endpoint: "http://x"}, io.Discard); err == nil {
		t.Fatal("unknown chain accepted")
	}
}
