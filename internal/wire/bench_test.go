package wire

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// BenchmarkDecode times one pooled codec decoding a stream of distinct
// blocks per chain into a reused projection, the steady state of an ingest
// worker: MB/s of raw JSON and allocations per block. The stream is a
// committed simulator payload redrawn block by block (decodeStream), so
// ids, amounts and every name holding a digit — Tezos and XRP addresses,
// some EOS accounts — differ from block to block, and the codec's front
// cache and intern table see a crawl's turnover rather than one payload's
// names over and over.
//
// Each chain runs twice: as the encoder writes it, and off layout, with
// one unknown member in every record (offLayout) — the case of a real
// node's payload, where the first record leaves its straight path and the
// rest are read by the keyed path.
//
// On 2 vCPUs, the medians of 10 to 20 alternated half-second runs read,
// per block, without → with the straight record paths: EOS 31.1 → 20.0
// µs, XRP 10.2 → 9.3; off layout EOS 35.8 → 35.8, XRP 12.2 → 12.0, so
// the one failed attempt does not show; Tezos, which has no straight
// path, 2.2 → 2.2. The box's run-to-run spread was as wide as the XRP
// difference, where bench/'s traced serve read 47.4 → 40.5 µs over six
// runs a side: size a decode gain by bench/'s workloads, not by this
// alone.
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
		raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			b.Fatal(err)
		}
		stream := decodeStream(raw, 64, 1)
		for _, layout := range []string{"", "-offlayout"} {
			if layout != "" {
				for i, block := range stream {
					stream[i] = offLayout[tc.name].re.ReplaceAll(block, []byte(offLayout[tc.name].repl))
				}
			}
			b.Run(tc.name+layout, func(b *testing.B) {
				c := NewCodec()
				size := 0
				for _, block := range stream {
					if err := tc.decode(c, block); err != nil {
						b.Fatal(err)
					}
					size += len(block)
				}
				b.SetBytes(int64(size / len(stream)))
				b.ReportAllocs()
				i := 0
				for b.Loop() {
					if err := tc.decode(c, stream[i%len(stream)]); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		}
	}
}

// decodeStream returns n copies of payload with every digit redrawn, as
// internal/archive's chainStream redraws them; a digit that starts a run
// of digits is drawn from 1 to 9, so no number gains a leading zero.
func decodeStream(payload []byte, n int, seed uint64) [][]byte {
	rng := rand.New(rand.NewPCG(seed, 1))
	stream := make([][]byte, n)
	for i := range stream {
		block := make([]byte, len(payload))
		for j, c := range payload {
			if c >= '0' && c <= '9' {
				if j+1 < len(payload) && isDigit(payload[j+1]) && (j == 0 || !isDigit(payload[j-1])) {
					c = '1' + byte(rng.IntN(9))
				} else {
					c = '0' + byte(rng.IntN(10))
				}
			}
			block[j] = c
		}
		stream[i] = block
	}
	return stream
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// offLayout puts one member no decoder names into every record of a
// chain's payload, where a real node puts one: nodeos' hex_data after an
// action's data, rippled's Flags before a transaction's result, and an
// operation's counter after its last member.
var offLayout = map[string]struct {
	re   *regexp.Regexp
	repl string
}{
	"eos":   {regexp.MustCompile(`"data":\{[^{}]*\}`), `$0,"hex_data":"a09867fa2a0f3d55"`},
	"tezos": {regexp.MustCompile(`\}(,\{"kind"|\]\})`), `,"counter":"1289"}$1`},
	"xrp":   {regexp.MustCompile(`,"meta_TransactionResult"`), `,"Flags":2147483648$0`},
}
