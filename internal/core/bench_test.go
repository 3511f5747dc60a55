package core

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkIngestBatch times one worker shard folding a committed
// simulator payload per chain (internal/wire's testdata, decoded once),
// over and over: after the first fold every map key the block touches
// exists, so a round is the timestamp parse and the per-action updates.
//
//	go test -run '^$' -bench IngestBatch -benchmem ./internal/core
func BenchmarkIngestBatch(b *testing.B) {
	for _, tc := range []struct{ chain, file string }{
		{"eos", "eos_block.json"},
		{"tezos", "tezos_block.json"},
		{"xrp", "xrp_ledger_result.json"},
	} {
		b.Run(tc.chain, func(b *testing.B) {
			raw, err := os.ReadFile(filepath.Join("..", "wire", "testdata", tc.file))
			if err != nil {
				b.Fatal(err)
			}
			kit := newKit(b, tc.chain)
			block, err := kit.Decoder.Decode(1, raw)
			if err != nil {
				b.Fatal(err)
			}
			batch := []any{block}
			shard := kit.Decoder.(ShardedDecoder).NewShard()
			if err := shard.IngestBatch(batch); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if err := shard.IngestBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
