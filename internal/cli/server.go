package cli

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// BoundedServer serves h with read-side limits, so a peer that connects and
// dawdles cannot hold a goroutine and a descriptor for ever: 5 s to finish
// the request headers, 30 s for the whole request, and an idle keep-alive
// connection is closed after 2 min. A hijacked connection (the XRP
// WebSocket) sheds the deadlines when it upgrades. Every listener the
// commands and the pipeline open goes through it.
func BoundedServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// ServeDebug opens a long-running command's debug listener (its -debug-addr)
// on addr and logs its URL; an empty addr opens nothing. The listener
// serves net/http/pprof under /debug/pprof/ and h, when not nil, at /.
// The pprof handlers are registered on the listener's own mux: importing
// net/http/pprof also registers them on http.DefaultServeMux, which no
// command serves, so they never reach an API listener. stop closes the
// listener.
func ServeDebug(addr string, h http.Handler, log *slog.Logger) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	mux := http.NewServeMux()
	if h != nil {
		mux.Handle("/", h)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := BoundedServer(mux)
	go func() { _ = srv.Serve(ln) }()
	log.Info("serving debug", "url", "http://"+ln.Addr().String())
	return func() { _ = srv.Close() }, nil
}
