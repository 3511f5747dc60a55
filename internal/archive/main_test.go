package archive

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/testkit"
)

// TestMain fails the package when a goroutine started by a test is still
// running after every test has returned: a Writer's member deflates must be
// gone once the rotation that waits for them returns, and OpenWith's and
// Replay's workers before they return.
func TestMain(m *testing.M) { testkit.Main(m) }

// TestWriterLeavesNoGoroutines: however a writer ends — closed cleanly,
// poisoned by a failed segment Put and then closed, or failing the Put of
// the segment Close finalizes while its members deflate — no member
// deflate outlives the call that ended it.
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
			"poisoned by a failed put": func(t *testing.T) {
				faulty := blobstore.NewFaulty(blobstore.NewMemory())
				faulty.Break(blobstore.OpPut, boom)
				w, err := NewWriter(WriterConfig{Store: faulty, Chain: "eos", SegmentBlocks: 8})
				if err != nil {
					t.Fatal(err)
				}
				w.memberBytes = 64
				var err8 error
				for num := int64(1); num <= 8; num++ {
					err8 = w.Append(num, payload(num))
				}
				if !errors.Is(err8, boom) {
					t.Fatalf("rotating append returned %v, want the put failure", err8)
				}
				if err := w.Append(9, payload(9)); err == nil {
					t.Fatal("a poisoned writer took another block")
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
