package cli

import (
	"io"
	"sync"
)

// SyncWriter returns a writer that serializes whole Write calls onto w. A
// command's feeds, renewal goroutines and worker subprocesses all report on
// the one stdout or stderr at once; each writes a line per call, so behind
// this their lines interleave instead of their bytes.
func SyncWriter(w io.Writer) io.Writer { return &serialWriter{w: w} }

type serialWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *serialWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
