package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/rpcserve"
	"repro/internal/wire"
	"repro/internal/workload"
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

// BenchmarkShardEncode folds the first 16, 64 and 256 blocks of each
// simulated chain (the workload package's default scales, seed 1) into one
// state and encodes it, reporting the blob's size and its bytes per block:
// the curve of how a shard grows with the blocks it covers.
//
//	go test -run '^$' -bench ShardEncode ./internal/core
func BenchmarkShardEncode(b *testing.B) {
	const base = 16
	for _, c := range simulatedChains(b, 16*base) {
		for _, times := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/%dx", c.name, times), func(b *testing.B) {
				blocks := c.blocks[:times*base]
				st, err := NewShardState(c.name, c.origin, c.bucket)
				if err != nil {
					b.Fatal(err)
				}
				if err := st.IngestBatch(blocks); err != nil {
					b.Fatal(err)
				}
				var blob []byte
				for b.Loop() {
					if blob, err = EncodeShard(st, 1); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(blob)), "bytes")
				b.ReportMetric(float64(len(blob))/float64(len(blocks)), "bytes/block")
			})
		}
	}
}

// simulatedChain is the first blocks of one simulated chain, decoded as
// the chain's StatsKit decodes a crawled payload.
type simulatedChain struct {
	name   string
	origin time.Time
	bucket time.Duration
	blocks []any
}

// simulatedChains builds the three workload scenarios and decodes the
// first n blocks of each, fetched from the rpcserve handlers in process.
func simulatedChains(b *testing.B, n int) []simulatedChain {
	b.Helper()
	eosSc, err := workload.BuildEOS(workload.EOSOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tezSc, err := workload.BuildTezos(workload.TezosOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	xrpSc, err := workload.BuildXRP(workload.XRPOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eosSc.Run()
	if _, err := tezSc.Run(); err != nil {
		b.Fatal(err)
	}
	xrpSc.Run()
	eosSrv, tezSrv := rpcserve.NewEOSServer(eosSc.Chain), rpcserve.NewTezosServer(tezSc.Chain)
	get := func(h http.Handler, req *http.Request) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", req.URL, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	payloads := map[string]func(num int) []byte{
		"eos": func(num int) []byte {
			return get(eosSrv, httptest.NewRequest("POST", "/v1/chain/get_block",
				strings.NewReader(fmt.Sprintf(`{"block_num_or_id":%d}`, num))))
		},
		"tezos": func(num int) []byte {
			return get(tezSrv, httptest.NewRequest("GET", fmt.Sprintf("/chains/main/blocks/%d", num), nil))
		},
		"xrp": func(num int) []byte {
			full := rpcserve.XRPLedgerToJSON(xrpSc.State.GetLedger(int64(num)), true)
			raw, err := json.Marshal(struct {
				Ledger wire.XRPLedgerJSON `json:"ledger"`
			}{full})
			if err != nil {
				b.Fatal(err)
			}
			return raw
		},
	}
	var out []simulatedChain
	for _, name := range []string{"eos", "tezos", "xrp"} {
		kit := newKit(b, name)
		c := simulatedChain{name: name, origin: chain.ObservationStart, bucket: 6 * time.Hour}
		for num := 1; num <= n; num++ {
			blk, err := kit.Decoder.Decode(int64(num), payloads[name](num))
			if err != nil {
				b.Fatalf("%s block %d: %v", name, num, err)
			}
			c.blocks = append(c.blocks, blk)
		}
		out = append(out, c)
	}
	return out
}
