package archive

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/testkit"
)

// TestMain fails the package when a goroutine started by a test is still
// running after every test has returned: a Writer's member deflates must be
// gone once its Close returns, and OpenWith's and
// Replay's workers before they return.
func TestMain(m *testing.M) { testkit.Main(m) }

// TestWriterLeavesNoGoroutines: however a writer ends — closed cleanly,
// closed with a sealed segment still deflating (its publish succeeding or
// failing), poisoned by a failed segment Put (at the latest rotation, or
// at an Append that finds the sealed segment deflated) and then closed, or
// failing the Put of the segment Close publishes while its members
// deflate — no member deflate outlives Close.
func TestWriterLeavesNoGoroutines(t *testing.T) {
	testkit.Repeat(t, 20, func(t *testing.T) {
		boom := errors.New("endpoint on fire")
		ends := map[string]func(t *testing.T){
			"closed": func(t *testing.T) {
				w, err := NewWriter(WriterConfig{Store: blobstore.NewMemory(), Chain: "eos", SegmentBlocks: 8})
				if err != nil {
					t.Fatal(err)
				}
				w.memberBytes = 64
				for num := int64(1); num <= 12; num++ {
					if err := w.Append(num, payload(num)); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			},
			"sealed segment pending at close": func(t *testing.T) {
				w, err := NewWriter(WriterConfig{Store: blobstore.NewMemory(), Chain: "eos", SegmentBlocks: 8})
				if err != nil {
					t.Fatal(err)
				}
				w.memberBytes = 64
				release := holdTokens(w)
				for num := int64(1); num <= 12; num++ {
					if err := w.Append(num, payload(num)); err != nil {
						t.Fatal(err)
					}
				}
				closed := make(chan error, 1)
				go func() { closed <- w.Close() }()
				for w.mu.TryLock() { // until Close holds the writer
					w.mu.Unlock()
					runtime.Gosched()
				}
				release()
				if err := <-closed; err != nil {
					t.Fatal(err)
				}
			},
			"failed publish of a pending sealed segment at close": func(t *testing.T) {
				faulty := blobstore.NewFaulty(blobstore.NewMemory())
				faulty.Break(blobstore.OpPut, boom)
				w, err := NewWriter(WriterConfig{Store: faulty, Chain: "eos", SegmentBlocks: 8})
				if err != nil {
					t.Fatal(err)
				}
				w.memberBytes = 64 // a member a record
				release := holdTokens(w)
				for num := int64(1); num <= 12; num++ {
					if err := w.Append(num, payload(num)); err != nil {
						t.Fatal(err)
					}
				}
				w.mu.Lock()
				open := w.cur
				w.mu.Unlock()
				closed := make(chan error, 1)
				go func() { closed <- w.Close() }()
				for w.mu.TryLock() { // until Close holds the writer
					w.mu.Unlock()
					runtime.Gosched()
				}
				release()
				if err := <-closed; !errors.Is(err, boom) {
					t.Fatalf("closing with segment 1's publish failing: %v, want the put failure", err)
				}
				if left := open.left.Load(); left != 0 {
					t.Fatalf("Close returned with %d of the open segment's members still deflating", left)
				}
			},
			"poisoned by a failed put": func(t *testing.T) {
				faulty := blobstore.NewFaulty(blobstore.NewMemory())
				faulty.Break(blobstore.OpPut, boom)
				w, err := NewWriter(WriterConfig{Store: faulty, Chain: "eos", SegmentBlocks: 8})
				if err != nil {
					t.Fatal(err)
				}
				w.memberBytes = 64
				// The rotation at 8 seals segment 1; the first Append to find
				// its members deflated publishes it, the rotation at 16 at
				// the latest, and the put failure surfaces there.
				failed := int64(0)
				for num := int64(1); num <= 16; num++ {
					err := w.Append(num, payload(num))
					switch {
					case err == nil && failed == 0:
					case !errors.Is(err, boom):
						t.Fatalf("append %d returned %v, want the put failure (first at %d)", num, err, failed)
					case failed == 0:
						failed = num
					}
				}
				if failed <= 8 {
					t.Fatalf("the put failure surfaced at append %d, want one in [9, 16]", failed)
				}
				if err := w.Append(17, payload(17)); !errors.Is(err, boom) {
					t.Fatalf("a poisoned writer took another block: %v", err)
				}
				if err := w.Close(); !errors.Is(err, boom) {
					t.Fatalf("closing a poisoned writer: %v, want the put failure", err)
				}
			},
			"failed publish on a later append": func(t *testing.T) {
				faulty := blobstore.NewFaulty(blobstore.NewMemory())
				faulty.Break(blobstore.OpPut, boom)
				w, err := NewWriter(WriterConfig{Store: faulty, Chain: "eos", SegmentBlocks: 8})
				if err != nil {
					t.Fatal(err)
				}
				w.memberBytes = 64
				for num := int64(1); num <= 12; num++ {
					if num == 9 {
						settle(w)
					}
					err := w.Append(num, payload(num))
					if num < 9 && err != nil || num >= 9 && !errors.Is(err, boom) {
						t.Fatalf("append %d returned %v; want the put failure from 9 on", num, err)
					}
				}
				if err := w.Close(); !errors.Is(err, boom) {
					t.Fatalf("closing a poisoned writer: %v, want the put failure", err)
				}
			},
			"failed publish on close": func(t *testing.T) {
				faulty := blobstore.NewFaulty(blobstore.NewMemory())
				faulty.BreakAfter(blobstore.OpPut, 2, -1, boom) // the first segment and its manifest publish
				w, err := NewWriter(WriterConfig{Store: faulty, Chain: "eos", SegmentBlocks: 8})
				if err != nil {
					t.Fatal(err)
				}
				w.memberBytes = 64
				for num := int64(1); num <= 12; num++ {
					if err := w.Append(num, payload(num)); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); !errors.Is(err, boom) {
					t.Fatalf("closing after a failed publish: %v, want the put failure", err)
				}
			},
		}
		for name, end := range ends {
			t.Run(name, func(t *testing.T) {
				end(t)
				if leaked := testkit.Leaked(time.Second); len(leaked) > 0 {
					t.Fatalf("%d goroutine(s) still running after the writer ended:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
				}
			})
		}
	})
}
