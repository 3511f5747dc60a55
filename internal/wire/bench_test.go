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
