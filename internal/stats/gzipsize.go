package stats

import (
	"compress/gzip"
	"io"
	"sync"
)

// GzipSizer measures the gzip-compressed size of a byte stream without
// retaining it. The paper characterizes each dataset by its compressed
// on-disk footprint (Figure 2: 121 GB EOS, 0.56 GB Tezos, 76.4 GB XRP);
// a crawl that keeps no bytes reports the same statistic by feeding every
// fetched block through a sizer (collect.Stream's default tee). A crawl
// that archives does not: its archive already deflates each payload and
// records the compressed size it stored.
type GzipSizer struct {
	mu      sync.Mutex
	counter countingWriter
	zw      *gzip.Writer
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// sizerGzipPool recycles the deflate state behind sizers: every tee-less
// crawl stream builds one, and the compressor's window plus hash chains
// dominate its footprint.
var sizerGzipPool = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// NewGzipSizer returns a sizer using the default compression level. Call
// Close when done with it to recycle the compressor state.
func NewGzipSizer() *GzipSizer {
	s := &GzipSizer{}
	s.zw = sizerGzipPool.Get().(*gzip.Writer)
	s.zw.Reset(&s.counter)
	return s
}

// Write feeds data through the compressor. It never fails; writes after
// Close are dropped.
func (s *GzipSizer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.zw == nil {
		return len(p), nil
	}
	return s.zw.Write(p)
}

// CompressedBytes flushes the compressor and returns the compressed size so
// far. The sizer remains usable after the call.
func (s *GzipSizer) CompressedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.zw != nil {
		s.zw.Flush()
	}
	return s.counter.n
}

// Close finalizes the stream, recycles the compressor and returns the
// total compressed size. The sizer must not be used afterwards.
func (s *GzipSizer) Close() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.zw == nil {
		return s.counter.n, nil
	}
	err := s.zw.Close()
	s.zw.Reset(io.Discard)
	sizerGzipPool.Put(s.zw)
	s.zw = nil
	if err != nil {
		return 0, err
	}
	return s.counter.n, nil
}
