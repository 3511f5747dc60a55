package cli

import (
	"bytes"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestBoundedServerDropsSlowHeaderClient: every read-side limit is set, and
// a client that opens a request and never finishes its headers is
// disconnected instead of holding the connection open. The header limit is
// shortened so the test need not wait out the real five seconds.
func TestBoundedServerDropsSlowHeaderClient(t *testing.T) {
	srv := BoundedServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("unbounded listener: header=%v read=%v idle=%v", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: slow\r\n"); err != nil { // no blank line: headers never end
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept a client that never finished its headers: %v", err)
	}
}

// TestServeDebug: the debug listener answers the pprof index, returns a
// one-second CPU profile (a gzip-framed protobuf, so it starts with the
// gzip magic), and hands every other path to the caller's handler. An
// empty address opens nothing and logs nothing.
func TestServeDebug(t *testing.T) {
	var logged bytes.Buffer
	stop, err := ServeDebug("", http.NotFoundHandler(), slog.New(slog.NewTextHandler(&logged, nil)))
	if err != nil || logged.Len() != 0 {
		t.Fatalf("empty address: err %v, logged %q", err, logged.String())
	}
	stop()

	caller := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "caller "+r.URL.Path)
	})
	stop, err = ServeDebug("127.0.0.1:0", caller, slog.New(slog.NewTextHandler(&logged, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	_, base, ok := strings.Cut(logged.String(), `msg="serving debug" url=`)
	if !ok {
		t.Fatalf("no serving record: %q", logged.String())
	}
	base = strings.TrimSpace(base)

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		return body
	}
	if body := get("/debug/pprof/"); !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof index names no goroutine profile:\n%s", body)
	}
	if body := get("/debug/pprof/profile?seconds=1"); !bytes.HasPrefix(body, []byte{0x1f, 0x8b}) {
		t.Errorf("CPU profile is not gzip-framed: % x", body[:min(len(body), 8)])
	}
	if body := get("/v1/anything"); string(body) != "caller /v1/anything" {
		t.Errorf("caller's handler not reached: %q", body)
	}
}
