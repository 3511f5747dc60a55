package stats

import (
	"bytes"
	"testing"
)

// BenchmarkGzipSizer is a developer benchmark, not gated anywhere. Only
// tee-less core.IngestCrawl runs the sizer; in bench/ that is the coordinate
// workload's single-process oracle pass, where its cost is inside
// coord_overhead and no per-layer metric isolates it — this does.
func BenchmarkGzipSizer(b *testing.B) {
	block := bytes.Repeat([]byte(`{"kind":"endorsement","slots":3}`), 32)
	s := NewGzipSizer()
	b.SetBytes(int64(len(block)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(block)
	}
}
