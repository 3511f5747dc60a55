package pipeline

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when a goroutine started by a test is still
// running after every test has returned: a stage owns its chain server,
// its crawl stream (live or replayed from an archive) and its ingest pool,
// RunStages its stage goroutines, and each must be gone once Run has
// returned. The race detector does not see leaks; this does.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(5 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "pipeline: %d goroutine(s) outlived the tests that started them:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines returns the stacks of goroutines other than the caller's
// and the test binary's own, giving stragglers (a connection's close
// handshake, an HTTP server noticing its listener closed) until patience
// runs out to unwind.
func leakedGoroutines(patience time.Duration) []string {
	deadline := time.Now().Add(patience)
	for {
		// Keep-alive connections park a reader and a writer each until
		// the transport lets go of them.
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
