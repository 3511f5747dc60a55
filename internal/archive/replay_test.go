package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/blobstore"
)

// replayAndCheck runs one Replay and checks the visit contract against
// want (block number → the bytes FetchBlock serves): every block exactly
// once, byte-equal, from a worker index below workers.
func replayAndCheck(t *testing.T, r *Reader, workers int, want map[int64][]byte) {
	t.Helper()
	var mu sync.Mutex
	seen := make(map[int64]int)
	err := r.Replay(context.Background(), workers, func(worker int, num int64, raw []byte) error {
		if worker < 0 || worker >= workers {
			return fmt.Errorf("worker index %d out of range [0, %d)", worker, workers)
		}
		if !bytes.Equal(raw, want[num]) {
			return fmt.Errorf("block %d: replay delivered %q, FetchBlock serves %q", num, raw, want[num])
		}
		mu.Lock()
		seen[num]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(want) {
		t.Fatalf("visited %d distinct blocks, want %d", len(seen), len(want))
	}
	for num, n := range seen {
		if n != 1 {
			t.Fatalf("block %d visited %d times", num, n)
		}
	}
}

// TestReplayRecordGranularContract pins Replay's contract at the
// granularity it claims work at: worker counts above, at and below the
// segment count, archives of one segment up to more than the cache holds,
// duplicates across segments and ranged opens whose covering segments hold
// out-of-range records. Over a counting store it also pins the load-once
// slot: one Replay fetches each segment the cache does not hold exactly
// once — not once per task, not once per worker — and a cached one never
// (every uncached segment has to be fetched at least once, so a total equal
// to their number is once each and nothing else).
func TestReplayRecordGranularContract(t *testing.T) {
	const n = 90 // blocks; with replayGrain 8, more tasks than any worker count below
	for _, variant := range []string{"plain", "duplicates", "ranged"} {
		for _, segments := range []int{1, 2, 5, 9} {
			variant, segments := variant, segments
			t.Run(fmt.Sprintf("%s/%dseg", variant, segments), func(t *testing.T) {
				var stale []int64
				if variant == "duplicates" {
					// Re-archived after everything else: the stale copies
					// land in the last segment(s), their first copies in
					// earlier ones whenever there is more than one.
					stale = []int64{n, n / 2, 1}
				}
				records := n + len(stale)
				mem := blobstore.NewMemory()
				w, err := NewWriter(WriterConfig{Store: mem, Chain: "eos", SegmentBlocks: (records + segments - 1) / segments})
				if err != nil {
					t.Fatal(err)
				}
				for num := int64(1); num <= n; num++ {
					if err := w.Append(num, payload(num)); err != nil {
						t.Fatal(err)
					}
				}
				for _, num := range stale {
					if err := w.Append(num, append(payload(num), "-stale"...)); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				opts := OpenOptions{}
				if variant == "ranged" {
					// Cuts through the first and last covering segments at
					// every segment count.
					opts.From, opts.To = 6, n-7
				}

				// What FetchBlock serves, from a reader of its own: a
				// FetchBlock walk moves the segment cache.
				opts.Store = mem
				ref, err := OpenWith("", opts)
				if err != nil {
					t.Fatal(err)
				}
				want := make(map[int64][]byte)
				for num := ref.From(); num <= ref.To(); num++ {
					raw, err := ref.FetchBlock(context.Background(), num)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(raw, payload(num)) {
						t.Fatalf("block %d: FetchBlock serves %q, not the earliest record", num, raw)
					}
					want[num] = raw
				}
				if variant == "ranged" && (len(want) != n-12 || ref.From() != 6 || ref.To() != n-7) {
					t.Fatalf("ranged open holds %d blocks in [%d, %d]", len(want), ref.From(), ref.To())
				}

				r, err := OpenWith("", opts)
				if err != nil {
					t.Fatal(err)
				}
				if r.Segments() != segments {
					t.Fatalf("open covers %d segments, want %d", r.Segments(), segments)
				}
				// Open kept the newest maxCache payloads and dropped the rest.
				uncached := int64(max(0, segments-r.maxCache))
				for _, workers := range []int{1, 2, 4, 8} {
					mem.ResetOps()
					replayAndCheck(t, r, workers, want)
					if got := mem.Ops(blobstore.OpGet); got != uncached {
						t.Fatalf("workers=%d: one Replay of %d segments issued %d gets, want %d (each uncached segment once)",
							workers, segments, got, uncached)
					}
				}
			})
		}
	}
}

// TestReplaySkipsSegmentsThatOwnNothing: a covering segment whose every
// record is a later copy of a block an earlier segment owns has no task,
// so a Replay never fetches it.
func TestReplaySkipsSegmentsThatOwnNothing(t *testing.T) {
	const seg = 20 // records per segment: several tasks each
	mem := blobstore.NewMemory()
	w, err := NewWriter(WriterConfig{Store: mem, Chain: "eos", SegmentBlocks: seg})
	if err != nil {
		t.Fatal(err)
	}
	// Segment 1 holds [1, 20], segment 2 a stale copy of each, segments
	// 3–7 hold [21, 120]: the newest four are cached by Open, 1–3 are not.
	for num := int64(1); num <= seg; num++ {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	for num := int64(1); num <= seg; num++ {
		if err := w.Append(num, append(payload(num), "-stale"...)); err != nil {
			t.Fatal(err)
		}
	}
	for num := int64(seg + 1); num <= 6*seg; num++ {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenWith("", OpenOptions{Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	if r.Segments() != 7 || r.Blocks() != 6*seg {
		t.Fatalf("segments=%d blocks=%d", r.Segments(), r.Blocks())
	}
	want := make(map[int64][]byte)
	for num := int64(1); num <= 6*seg; num++ {
		want[num] = payload(num)
	}
	mem.ResetOps()
	replayAndCheck(t, r, 4, want)
	// Segments 1 and 3 own records and are not cached: one get each.
	// Segment 2 is not cached either, and a get for it would be the third.
	if got := mem.Ops(blobstore.OpGet); got != 2 {
		t.Errorf("replay issued %d gets, want 2 (segments 1 and 3; segment 2 owns nothing)", got)
	}
}

// TestReplayOneSegmentManyWorkers: a one-segment archive is walked by more
// than one worker. Every visit parks until a second worker index has shown
// up, so a Replay that hands the whole segment to one goroutine never
// finishes.
func TestReplayOneSegmentManyWorkers(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir, "eos", 64, 1000)
	r, err := OpenWith(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Segments() != 1 {
		t.Fatalf("archive has %d segments, want 1", r.Segments())
	}
	var (
		mu     sync.Mutex
		first  = -1
		second = make(chan struct{})
		closed bool
	)
	err = r.Replay(context.Background(), 4, func(worker int, num int64, raw []byte) error {
		mu.Lock()
		switch {
		case first < 0:
			first = worker
		case worker != first && !closed:
			closed = true
			close(second)
		}
		mu.Unlock()
		select {
		case <-second:
			return nil
		case <-time.After(30 * time.Second):
			return errors.New("no second worker joined the walk of a one-segment archive")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
