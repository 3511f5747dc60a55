package archive

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/blobstore/s3stub"
)

// Developer benchmarks, not gated anywhere. The benchmark's workloads archive
// into mem:// only, where bench/ reads archive.append_us_per_block, open_ms
// and walk_us_per_block; what is left here are the paths no workload reaches:
// the file:// and s3:// backends and ranged opens.

// benchStore builds one store per backend for the per-backend benches;
// the s3 stub is torn down with the benchmark.
func benchStore(b *testing.B, backend string) blobstore.Store {
	b.Helper()
	switch backend {
	case "file":
		return blobstore.NewFile(b.TempDir())
	case "s3":
		stub := s3stub.New()
		b.Cleanup(stub.Close)
		st, err := blobstore.Resolve(stub.URL("bench", ""))
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	b.Fatalf("unknown backend %q", backend)
	return nil
}

// BenchmarkArchiveWriteFile and friends split the tee-side cost per
// backend: file shows the fsync+rename tax, s3 the HTTP round-trip (against
// a loopback stub); the compression floor under both is the ledger's
// archive.append_us_per_block.
func BenchmarkArchiveWriteFile(b *testing.B) { benchArchiveWrite(b, "file") }
func BenchmarkArchiveWriteS3(b *testing.B)   { benchArchiveWrite(b, "s3") }

func benchArchiveWrite(b *testing.B, backend string) {
	raw := payloadN(1, 4096)
	w, err := NewWriter(WriterConfig{Store: benchStore(b, backend), Chain: "eos"})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(int64(i+1), raw); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReplayFile and friends time open + parallel replay per
// backend, the path cmd/report -replay runs per chain.
func BenchmarkReplayFile(b *testing.B) { benchReplay(b, "file") }
func BenchmarkReplayS3(b *testing.B)   { benchReplay(b, "s3") }

func benchReplay(b *testing.B, backend string) {
	const blocks = 1000
	st := benchStore(b, backend)
	w, err := NewWriter(WriterConfig{Store: st, Chain: "eos", SegmentBlocks: 256})
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for num := int64(blocks); num >= 1; num-- {
		raw := payloadN(num, 2048)
		total += int64(len(raw))
		if err := w.Append(num, raw); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenWith("", OpenOptions{Store: st})
		if err != nil {
			b.Fatal(err)
		}
		err = r.Replay(context.Background(), 0, func(worker int, num int64, raw []byte) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangedOpen times a sub-range open of a large archive — the
// per-segment range index at work: only the covering segment is fetched
// and verified.
func BenchmarkRangedOpen(b *testing.B) {
	st := blobstore.NewMemory()
	w, err := NewWriter(WriterConfig{Store: st, Chain: "eos", SegmentBlocks: 256})
	if err != nil {
		b.Fatal(err)
	}
	for num := int64(1); num <= 4096; num++ {
		if err := w.Append(num, payloadN(num, 2048)); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenWith("", OpenOptions{Store: st, From: 1024, To: 1200})
		if err != nil {
			b.Fatal(err)
		}
		if r.Blocks() != 177 {
			b.Fatalf("range open indexed %d blocks", r.Blocks())
		}
	}
}

// payloadN fabricates a raw block body of roughly n bytes.
func payloadN(num int64, n int) []byte {
	body := make([]byte, n)
	copy(body, fmt.Sprintf(`{"block_num":%d,"body":"`, num))
	for i := range body {
		if body[i] == 0 {
			body[i] = byte('a' + (num+int64(i))%23)
		}
	}
	body[n-2], body[n-1] = '"', '}'
	return body
}

// BenchmarkInflateMember times one 512 KiB member of each chain's stream,
// deflated at segmentLevel from the wire package's testdata payloads the
// way the writer cuts and deflates a member, inflated by the archive's own
// decoder (own) and by a reused compress/gzip reader checking the trailer
// (gzip), the reference the decoder is measured against. MB/s are of
// inflated stream.
func BenchmarkInflateMember(b *testing.B) {
	for _, chain := range []string{"eos", "tezos", "xrp"} {
		task, _ := memberTask(chainPayloads(b)[chain], memberBytes, 1)
		b.Run(chain+"/own", func(b *testing.B) {
			var d flateDecoder
			b.SetBytes(int64(len(task.dst)))
			b.ReportAllocs()
			for b.Loop() {
				if err := d.gunzip(task.src, task.dst); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(chain+"/gzip", func(b *testing.B) {
			var (
				src   bytes.Reader
				zr    gzip.Reader
				probe [1]byte
			)
			b.SetBytes(int64(len(task.dst)))
			b.ReportAllocs()
			for b.Loop() {
				src.Reset(task.src)
				if err := zr.Reset(&src); err != nil {
					b.Fatal(err)
				}
				zr.Multistream(false)
				n, err := io.ReadFull(&zr, task.dst)
				if err == nil {
					// Asking for more is what makes the reader check the trailer.
					_, err = zr.Read(probe[:])
				}
				if n != len(task.dst) || err != io.EOF {
					b.Fatalf("compress/gzip reads %d of %d bytes: %v", n, len(task.dst), err)
				}
			}
		})
	}
}
