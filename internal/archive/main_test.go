package archive

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/blobstore"
)

// TestMain fails the package when a goroutine started by a test is still
// running after every test has returned: a Writer's member deflates must be
// gone once the rotation that waits for them returns, and OpenWith's and
// Replay's workers before they return. The race detector does not see
// leaks; this does.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(5 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "archive: %d goroutine(s) outlived the tests that started them:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines returns the stacks of goroutines other than the caller's
// and the test binary's own, giving stragglers (an S3 stub connection's
// close handshake) until patience runs out to unwind.
func leakedGoroutines(patience time.Duration) []string {
	deadline := time.Now().Add(patience)
	for {
		// Keep-alive connections to the S3 stub park a reader and a writer
		// each until the transport lets go of them.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		leaked := foreignGoroutines()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// foreignGoroutines snapshots every goroutine stack except the calling
// goroutine's and those the testing and profiling runtime keeps for
// itself.
func foreignGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := strings.Split(strings.TrimSpace(string(buf)), "\n\n")
	var foreign []string
	for _, s := range stacks[1:] { // the first stack is the caller's
		switch {
		case strings.Contains(s, "testing.(*M).Run"), // the main goroutine, when called from a test
			strings.Contains(s, "testing.tRunner"), // the calling test's parents, parked in t.Run
			strings.Contains(s, "os/signal."),
			strings.Contains(s, "runtime/pprof."),
			strings.Contains(s, "runtime.ensureSigM"):
		default:
			foreign = append(foreign, s)
		}
	}
	return foreign
}

// TestWriterLeavesNoGoroutines: however a writer ends — closed cleanly,
// poisoned by a failed segment Put and then closed, or failing the Put of
// the segment Close finalizes while its members deflate — no member
// deflate outlives the call that ended it.
func TestWriterLeavesNoGoroutines(t *testing.T) {
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
			if leaked := leakedGoroutines(time.Second); len(leaked) > 0 {
				t.Fatalf("%d goroutine(s) still running after the writer ended:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
			}
		})
	}
}
