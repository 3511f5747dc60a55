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

// quiet discards a run's records.
var quiet = slog.New(slog.DiscardHandler)

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
		workers: 2,
	}
	var oracle bytes.Buffer
	if err := run(context.Background(), base, &oracle, quiet); err != nil {
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
			if err := run(ctx, opts, &out, quiet); err != nil {
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
			// What SIGKILL leaves: the segments published are in the
			// manifest, the open one — here blocks 32 and 31 — is gone, and
			// so is the sealed one before it unless an Append published it.
			// The writer is dropped without Close.
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
			if err := run(context.Background(), opts, io.Discard, quiet); err == nil {
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
			if err := run(context.Background(), opts, &out2, quiet); err != nil {
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
			if err := run(context.Background(), opts, &out3, quiet); err != nil {
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
	err := run(ctx, crawlOpts{ArchiveFlags: cli.ArchiveFlags{From: 1}, chain: "eos", endpoint: s.srv.URL, workers: 2}, &out, quiet)
	if err == nil {
		t.Fatalf("interrupted archive-less run exited clean:\n%s", out.String())
	}
	if strings.Contains(out.String(), "to resume") {
		t.Fatalf("archive-less run suggests resuming from a record that was never written:\n%s", out.String())
	}
}

// TestCrawlArchiveCrossBackendDeterminism: a crawl archived to a mem://
// store or to an S3-compatible stub prints the figures a plain crawl
// prints, reports the bytes its store holds as its gzip footprint, and its
// archive replays to the same figures without touching the endpoint. These
// are the backends a second process cannot reopen here; file:// is the
// archive path of the repository's TestEveryPathPrintsThePaper.
func TestCrawlArchiveCrossBackendDeterminism(t *testing.T) {
	const total = 30
	s := newCountingEOSServer(t, total)
	stub := s3stub.New()
	defer stub.Close()

	// Without -archive nothing else deflates the payloads, so
	// core.IngestCrawl's sizer fills the line.
	var plain bytes.Buffer
	if err := run(context.Background(), crawlOpts{
		ArchiveFlags: cli.ArchiveFlags{From: 1},
		chain:        "eos", endpoint: s.srv.URL,
		workers: 2,
	}, &plain, quiet); err != nil {
		t.Fatalf("plain crawl failed: %v\n%s", err, plain.String())
	}
	if gz, raw := gzipLine(t, plain.String()); gz <= 0 || gz >= raw {
		t.Fatalf("plain crawl printed gzip bytes %d of raw %d", gz, raw)
	}
	want := figuresOf(t, plain.String())

	for backend, loc := range map[string]string{
		"mem": "mem://crawl-xbackend/eos",
		"s3":  stub.URL("crawls", "eos"),
	} {
		var out bytes.Buffer
		if err := run(context.Background(), crawlOpts{
			ArchiveFlags: cli.ArchiveFlags{Archive: loc, From: 1},
			chain:        "eos", endpoint: s.srv.URL,
			workers: 2,
		}, &out, quiet); err != nil {
			t.Fatalf("%s: archived crawl failed: %v\n%s", backend, err, out.String())
		}
		if got := figuresOf(t, out.String()); got != want {
			t.Fatalf("%s: live figures differ from a plain crawl's:\n--- %s ---\n%s\n--- plain ---\n%s", backend, backend, got, want)
		}
		// One deflate per payload: an archived crawl's footprint line is the
		// bytes its store now holds, not a second compression of the stream.
		if gz, _ := gzipLine(t, out.String()); gz != storedSegmentBytes(t, loc) || gz == 0 {
			t.Fatalf("%s: printed gzip bytes %d, store holds %d", backend, gz, storedSegmentBytes(t, loc))
		}

		s.reset()
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
		if got := core.Figures(kit.State()); got != want {
			t.Fatalf("%s: replayed figures differ from live:\n--- live ---\n%s\n--- replay ---\n%s", backend, want, got)
		}
		if nums := s.fetchedNums(); len(nums) != 0 {
			t.Fatalf("%s: replay hit the network for blocks %v", backend, nums)
		}
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
		workers: 2,
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.mu.Lock()
	s.limit, s.interrupt = 15, cancel
	s.mu.Unlock()
	var out1 bytes.Buffer
	if err := run(ctx, opts, &out1, quiet); err != nil {
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
	if err := run(context.Background(), opts, &out2, quiet); err != nil {
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
	if err := run(context.Background(), crawlOpts{chain: "doge", endpoint: "http://x"}, io.Discard, quiet); err == nil {
		t.Fatal("unknown chain accepted")
	}
}

// TestCrawlNarrowerRerunRefused: once an archive holds [1, 40], a rerun
// over a narrower range into it is refused before it fetches a block — its
// figures would cover only its own range while a replay of the archive
// covers [1, 40], breaking the promise that the replay reproduces them. A
// rerun over the same range still resumes.
func TestCrawlNarrowerRerunRefused(t *testing.T) {
	s := newCountingEOSServer(t, 40)
	wide := crawlOpts{
		ArchiveFlags: cli.ArchiveFlags{Archive: filepath.Join(t.TempDir(), "a"), From: 1, To: 40},
		chain:        "eos", endpoint: s.srv.URL,
		workers: 2,
	}
	if err := run(context.Background(), wide, io.Discard, quiet); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int64{{20, 40}, {20, 0}, {1, 30}} {
		s.reset()
		narrow := wide
		narrow.From, narrow.To = r[0], r[1]
		err := run(context.Background(), narrow, io.Discard, quiet)
		if err == nil || !strings.Contains(err.Error(), "covers [1, 40]") || !strings.Contains(err.Error(), "delete the archive") {
			t.Fatalf("crawl of [%d, %d] into an archive of [1, 40]: %v, want a refusal naming the archive's range", r[0], r[1], err)
		}
		if got := s.fetchedNums(); len(got) != 0 {
			t.Fatalf("refused crawl of [%d, %d] fetched blocks %v", r[0], r[1], got)
		}
	}
	s.reset()
	if err := run(context.Background(), wide, io.Discard, quiet); err != nil {
		t.Fatalf("rerun over the archive's own range: %v", err)
	}
}

// TestCrawlDebugListener: with -debug-addr the crawl serves pprof while it
// runs — the index and a one-second CPU profile — and the listener closes
// with the run. The endpoint never answers a block, so the crawl is still
// running when the profile is taken. (It reads each request's body first:
// only then does the server watch for the client hanging up.)
func TestCrawlDebugListener(t *testing.T) {
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(stalled.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	diag := &lockedBuffer{}
	o := crawlOpts{ArchiveFlags: cli.ArchiveFlags{From: 1, To: 5}, chain: "eos", endpoint: stalled.URL, workers: 1, debugAddr: "127.0.0.1:0"}
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, o, io.Discard, slog.New(slog.NewTextHandler(diag, nil))) }()

	var base string
	for deadline := time.Now().Add(10 * time.Second); base == ""; time.Sleep(5 * time.Millisecond) {
		if _, url, ok := strings.Cut(diag.String(), `msg="serving debug" url=`); ok {
			base, _, _ = strings.Cut(url, "\n")
		} else if time.Now().After(deadline) {
			t.Fatalf("no serving record:\n%s", diag.String())
		}
	}
	for path, want := range map[string][]byte{"/debug/pprof/": []byte("<html>"), "/debug/pprof/profile?seconds=1": {0x1f, 0x8b}} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(body, want) {
			t.Fatalf("GET %s: %d, body starts % x, want % x", path, resp.StatusCode, body[:min(len(body), 8)], want)
		}
	}

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled crawl: %v", err)
	}
	if _, err := http.Get(base + "/debug/pprof/"); err == nil {
		t.Fatal("the debug listener outlived the run")
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
