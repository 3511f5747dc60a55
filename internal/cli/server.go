package cli

import (
	"net/http"
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
