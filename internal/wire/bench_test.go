package wire

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkDecode times one pooled codec decoding a committed simulator
// payload per chain into a reused projection, the steady state of an
// ingest worker: MB/s of raw JSON and allocations per block.
//
// It decodes one payload over and over, so every string it interns is a
// front-cache hit and the payload never leaves the CPU's caches: it
// overstates a decode gain. On 2 vCPUs the straight path for plain strings
// read 29.2 → 19.8 µs per EOS block here at best (-32 %), where the best
// pass of one codec over the 199 distinct EOS blocks of bench/'s seed-1
// dataset read 11.0 → 9.0 ms (-18 %) and serve's traced
// wire.decode_us_per_block.eos 70–79 → 61–63 µs. Size a decode gain by
// bench/'s workloads, not by this alone.
//
//	go test -run '^$' -bench Decode -benchmem ./internal/wire
func BenchmarkDecode(b *testing.B) {
	for _, tc := range []struct {
		name, file string
		decode     func(c *Codec, raw []byte) error
	}{
		{"eos", "eos_block.json", func() func(*Codec, []byte) error {
			var into EOSBlock
			return func(c *Codec, raw []byte) error { return c.DecodeEOSBlock(raw, &into) }
		}()},
		{"tezos", "tezos_block.json", func() func(*Codec, []byte) error {
			var into TezosBlock
			return func(c *Codec, raw []byte) error { return c.DecodeTezosBlock(raw, &into) }
		}()},
		{"xrp", "xrp_ledger_result.json", func() func(*Codec, []byte) error {
			var into XRPLedger
			return func(c *Codec, raw []byte) error { return c.DecodeXRPLedgerResult(raw, &into) }
		}()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				b.Fatal(err)
			}
			c := NewCodec()
			if err := tc.decode(c, raw); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for b.Loop() {
				if err := tc.decode(c, raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
