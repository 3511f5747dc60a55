package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/blobstore/s3stub"
	"repro/internal/testkit"
)

// ascendingArchive archives blocks [1, n] in height order so segment
// ranges tile cleanly ([1,segBlocks], [segBlocks+1, 2*segBlocks], …).
func ascendingArchive(t *testing.T, location string, st blobstore.Store, n int64, segBlocks int) {
	t.Helper()
	w, err := NewWriter(WriterConfig{Dir: location, Store: st, Chain: "eos", SegmentBlocks: segBlocks})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(1); num <= n; num++ {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRangedOpenFetchesOnlyCoveringSegments is the range index's proof: a
// sub-range open against the counted memory backend must fetch the
// manifest plus exactly the segments whose [min, max] covers the range —
// never the rest of the archive.
func TestRangedOpenFetchesOnlyCoveringSegments(t *testing.T) {
	// A store of its own, so every run (go test -count N) counts only its
	// own gets.
	mem := blobstore.NewMemory()
	url := mem.URL()
	ascendingArchive(t, url, nil, 64, 8) // 8 segments: [1,8], [9,16], …, [57,64]

	// [17, 24] sits inside exactly one segment.
	mem.ResetOps()
	r, err := OpenWith(url, OpenOptions{From: 17, To: 24})
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.Ops(blobstore.OpGet); got != 2 {
		t.Fatalf("ranged open issued %d gets, want 2 (manifest + 1 covering segment)", got)
	}
	if r.Segments() != 1 || r.Blocks() != 8 || r.From() != 17 || r.To() != 24 {
		t.Fatalf("ranged reader: segments=%d blocks=%d range=[%d,%d]", r.Segments(), r.Blocks(), r.From(), r.To())
	}
	if !r.Covers(17, 24) || r.Covers(16, 17) || r.Covers(24, 25) {
		t.Fatal("ranged coverage wrong")
	}
	if _, err := r.FetchBlock(context.Background(), 30); err == nil {
		t.Fatal("fetched a block outside the open range")
	}

	// Replay delivers exactly the in-range blocks, from the cache Open
	// seeded — zero further fetches.
	var mu sync.Mutex
	seen := make(map[int64]bool)
	err = r.Replay(context.Background(), 4, func(worker int, num int64, raw []byte) error {
		if !bytes.Equal(raw, payload(num)) {
			return fmt.Errorf("block %d: wrong bytes", num)
		}
		mu.Lock()
		seen[num] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 8 {
		t.Fatalf("range replay visited %d blocks, want 8", len(seen))
	}
	for num := int64(17); num <= 24; num++ {
		if !seen[num] {
			t.Fatalf("range replay missed block %d", num)
		}
	}
	if got := mem.Ops(blobstore.OpGet); got != 2 {
		t.Fatalf("replay re-fetched: %d total gets, want still 2", got)
	}

	// [7, 10] straddles a segment boundary: exactly two covering segments.
	mem.ResetOps()
	r2, err := OpenWith(url, OpenOptions{From: 7, To: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.Ops(blobstore.OpGet); got != 3 {
		t.Fatalf("boundary-straddling open issued %d gets, want 3 (manifest + 2 segments)", got)
	}
	if r2.Segments() != 2 || r2.Blocks() != 4 {
		t.Fatalf("straddling reader: segments=%d blocks=%d", r2.Segments(), r2.Blocks())
	}

	// Degenerate ranges are rejected up front.
	for _, bad := range [][2]int64{{0, 5}, {5, 4}, {-1, 3}} {
		if _, err := OpenWith(url, OpenOptions{From: bad[0], To: bad[1]}); err == nil {
			t.Errorf("ranged open [%d, %d] succeeded", bad[0], bad[1])
		}
	}
}

// TestCrossBackendIdenticalSegments: the same append sequence archived to
// file, memory and the S3 stub, with its members deflating on 1, 2 or 4
// CPUs, must produce byte-identical segment objects (same SHA-256 chain in
// the manifest) and replay the same payloads — the archive format is
// backend-invariant, and a member's bytes depend on its records alone, not
// on which goroutine deflated it or when. The last segment's final fill,
// block 31, is over a quarter of the member size, so Close splits it in two
// members, and the split is held to the same identity.
func TestCrossBackendIdenticalSegments(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		stub := s3stub.New()
		defer stub.Close()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		manifests := make(map[string]Manifest)
		replays := make(map[string]map[int64]string)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			s3, err := blobstore.Resolve(stub.URL("bkt", fmt.Sprintf("cross-%d", procs)))
			if err != nil {
				t.Fatal(err)
			}
			stores := map[string]blobstore.Store{
				"file": blobstore.NewFile(t.TempDir()),
				"mem":  blobstore.NewMemory(),
				"s3":   s3,
			}
			for backend, st := range stores {
				name := fmt.Sprintf("%s, GOMAXPROCS=%d", backend, procs)
				w, err := NewWriter(WriterConfig{Store: st, Chain: "eos", SegmentBlocks: 7})
				if err != nil {
					t.Fatal(err)
				}
				w.memberBytes = 100 // two records of payload() a member
				for num := int64(1); num <= 31; num++ {
					if err := w.Append(num, payload(num)); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				m, err := loadManifest(context.Background(), st)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				manifests[name] = m
				last, err := st.Get(context.Background(), m.Segments[len(m.Segments)-1].File)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := countMembers(t, last); got != 3 {
					t.Fatalf("%s: last segment (blocks 29–31) is %d members, want 29–30's and block 31's two halves", name, got)
				}

				r, err := OpenWith("", OpenOptions{Store: st})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var mu sync.Mutex
				got := make(map[int64]string)
				err = r.Replay(context.Background(), 3, func(worker int, num int64, raw []byte) error {
					mu.Lock()
					got[num] = string(raw)
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatalf("%s replay: %v", name, err)
				}
				replays[name] = got
			}
		}
		ref := manifests["file, GOMAXPROCS=1"]
		for name, m := range manifests {
			if len(m.Segments) != len(ref.Segments) {
				t.Fatalf("%s: %d segments, file, GOMAXPROCS=1 has %d", name, len(m.Segments), len(ref.Segments))
			}
			for i := range m.Segments {
				if m.Segments[i].SHA256 != ref.Segments[i].SHA256 || m.Segments[i].CompBytes != ref.Segments[i].CompBytes {
					t.Errorf("%s: segment %d differs from file, GOMAXPROCS=1: %+v vs %+v", name, i, m.Segments[i], ref.Segments[i])
				}
			}
		}
		for name, got := range replays {
			if len(got) != 31 {
				t.Fatalf("%s replayed %d blocks", name, len(got))
			}
			for num, raw := range replays["file, GOMAXPROCS=1"] {
				if got[num] != raw {
					t.Errorf("%s block %d replayed different bytes", name, num)
				}
			}
		}
	})
}

// TestReaderFaultsPerBackend: under injected faults on any backend, a
// transient store failure propagates as itself (never dressed up as
// corruption), while a genuinely missing segment is ErrCorrupt.
func TestReaderFaultsPerBackend(t *testing.T) {
	stub := s3stub.New()
	defer stub.Close()
	builders := map[string]func(t *testing.T) blobstore.Store{
		"file": func(t *testing.T) blobstore.Store { return blobstore.NewFile(t.TempDir()) },
		"mem":  func(t *testing.T) blobstore.Store { return blobstore.NewMemory() },
		"s3": func(t *testing.T) blobstore.Store {
			st, err := blobstore.Resolve(stub.URL("bkt", "faults-"+t.Name()))
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			base := build(t)
			ascendingArchive(t, base.URL(), base, 20, 5)

			// Transient fetch failure during open: the error is the
			// injected one, not ErrCorrupt.
			boom := errors.New("transient backend failure")
			faulty := blobstore.NewFaulty(base)
			faulty.BreakAfter(blobstore.OpGet, 1, -1, boom) // manifest loads, segments fail
			_, err := OpenWith(base.URL(), OpenOptions{Store: faulty, Workers: 1})
			if !errors.Is(err, boom) {
				t.Fatalf("injected fault surfaced as %v", err)
			}
			if errors.Is(err, ErrCorrupt) {
				t.Fatal("transient store failure misreported as corruption")
			}

			// Replay-time transient failure: open cleanly, then fail every
			// later fetch; the replay error is the fault, not corruption.
			faulty.Clear()
			r, err := OpenWith(base.URL(), OpenOptions{Store: faulty})
			if err != nil {
				t.Fatal(err)
			}
			r.mu.Lock()
			r.cache = make(map[int][]byte) // force every segment down the fetch path
			r.order = nil
			r.mu.Unlock()
			faulty.Break(blobstore.OpGet, boom)
			err = r.Replay(context.Background(), 2, func(worker int, num int64, raw []byte) error { return nil })
			if !errors.Is(err, boom) || errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay under faults: %v", err)
			}
			faulty.Clear()

			// A missing segment is corruption.
			if err := base.Delete(context.Background(), segmentName(1)); err != nil {
				t.Fatal(err)
			}
			_, err = OpenWith(base.URL(), OpenOptions{Store: base})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("missing segment: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestDiscoverPropagatesStatErrors: a store failure while probing for a
// manifest must surface, not silently degrade into "no archives" (the old
// os.Stat path swallowed every error class).
func TestDiscoverPropagatesStatErrors(t *testing.T) {
	boom := errors.New("auth expired")
	faulty := blobstore.NewFaulty(blobstore.NewMemory())
	faulty.Break(blobstore.OpStat, boom)
	_, err := discoverIn(faulty, "mem://faulty-discover")
	if !errors.Is(err, boom) {
		t.Fatalf("stat failure swallowed: %v", err)
	}

	// Same for the listing pass.
	faulty.Clear()
	faulty.Break(blobstore.OpList, boom)
	_, err = discoverIn(faulty, "mem://faulty-discover")
	if !errors.Is(err, boom) {
		t.Fatalf("list failure swallowed: %v", err)
	}
}

// TestDiscoverOverStoreURLs: discovery works on blob-store URLs, finds
// per-chain sub-archives, and names the supported schemes when nothing is
// found.
func TestDiscoverOverStoreURLs(t *testing.T) {
	base := "mem://disc-url"
	for _, chain := range []string{"tezos", "eos"} {
		ascendingArchive(t, blobstore.Join(base, chain), nil, 5, 5)
	}
	got, err := Discover(base)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"mem://disc-url/eos", "mem://disc-url/tezos"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Discover = %v, want %v", got, want)
	}
	for _, loc := range got {
		if _, err := OpenWith(loc, OpenOptions{}); err != nil {
			t.Fatalf("discovered archive %s failed to open: %v", loc, err)
		}
	}

	_, err = Discover("mem://disc-empty")
	if err == nil {
		t.Fatal("empty store discovered archives")
	}
	for _, fragment := range []string{"no archives", "s3://BUCKET", "mem://NAME"} {
		if !containsStr(err.Error(), fragment) {
			t.Errorf("no-archives error %q lacks %q", err, fragment)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && bytes.Contains([]byte(s), []byte(sub))
}
