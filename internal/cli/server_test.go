package cli

import (
	"io"
	"net"
	"net/http"
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
