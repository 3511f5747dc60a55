// Package testkit holds what the module's tests share: the race flag, the
// goroutine-leak check a package's TestMain runs, and the repetition of a
// concurrency contract under the race detector. It uses only the standard
// library, and only _test.go files import it (TestLayering pins both).
package testkit

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the package's tests and fails the binary when a goroutine
// started by a test is still running after every test has returned. The
// race detector does not see leaks; this does. Call it from TestMain.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := Leaked(5 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "%d goroutine(s) outlived the tests that started them:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// Leaked returns the stacks of goroutines other than the caller's and the
// test binary's own, giving stragglers (a connection's close handshake, an
// HTTP server noticing its listener closed, a stream's run returning a
// moment after it releases Wait) until patience runs out to unwind.
func Leaked(patience time.Duration) []string {
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

// procs are the GOMAXPROCS values Repeat runs a contract at: the
// interleavings that break a hand-off between goroutines differ with the
// CPU count, and one pass rarely meets them.
var procs = []int{1, 2, 4}

// Repeat states how often a concurrency contract must hold. Under -race it
// runs body as subtests, rounds times at each GOMAXPROCS of 1, 2 and 4, and
// stops at the first failing round; GOMAXPROCS is restored afterwards.
// Without -race it runs body once, as t itself, so the plain suite pays
// for one pass. A test that calls it must not call t.Parallel.
func Repeat(t *testing.T, rounds int, body func(t *testing.T)) {
	t.Helper()
	if !Race {
		body(t)
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range procs {
		runtime.GOMAXPROCS(n)
		ok := t.Run(fmt.Sprintf("procs=%d", n), func(t *testing.T) {
			for i := 1; i <= rounds; i++ {
				if !t.Run(fmt.Sprintf("round=%d", i), body) {
					return
				}
			}
		})
		if !ok {
			return
		}
	}
}
