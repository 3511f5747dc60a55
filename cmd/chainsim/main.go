// Command chainsim generates the three calibrated chain histories and
// serves them over the same network APIs the paper crawled:
//
//   - EOS:   HTTP JSON RPC (POST /v1/chain/get_info, /v1/chain/get_block)
//   - Tezos: REST RPC (GET /chains/main/blocks/{level})
//   - XRP:   rippled-style WebSocket (ledger, server_info) plus an
//     explorer with account metadata and exchange rates
//
// It prints the listening endpoints and blocks until interrupted, so
// cmd/crawl (or any HTTP/WebSocket client) can collect from it.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chain"
	"repro/internal/cli"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/explorer"
	"repro/internal/pipeline"
	"repro/internal/rpcserve"
	"repro/internal/workload"
)

func main() {
	eosScale := flag.Int64("eos-scale", 50_000, "EOS scale divisor")
	tezosScale := flag.Int64("tezos-scale", 800, "Tezos scale divisor")
	xrpScale := flag.Int64("xrp-scale", 20_000, "XRP scale divisor")
	seed := flag.Int64("seed", 1, "scenario seed")
	addr := flag.String("addr", "127.0.0.1", "listen address")
	selfCheck := flag.Int64("selfcheck", 25, "stream the newest N blocks of each chain through the ingestion API after startup (0 disables)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "chainsim:", err)
		os.Exit(1)
	}

	// The three histories are independent, so build them side by side with
	// the stage runner the measurement pipeline uses.
	var (
		eosScenario   *workload.EOSScenario
		tezosScenario *workload.TezosScenario
		xrpScenario   *workload.XRPScenario
	)
	fmt.Println("chainsim: generating EOS, Tezos and XRP histories…")
	metrics, err := pipeline.RunStages(context.Background(), []pipeline.Stage{
		{Name: "eos", Run: func(context.Context) (pipeline.StageStats, error) {
			s, err := workload.BuildEOS(workload.EOSOptions{Scale: *eosScale, Seed: *seed})
			if err != nil {
				return pipeline.StageStats{}, err
			}
			s.Run()
			eosScenario = s
			return pipeline.StageStats{Blocks: int64(s.Chain.HeadNum())}, nil
		}},
		{Name: "tezos", Run: func(context.Context) (pipeline.StageStats, error) {
			s, err := workload.BuildTezos(workload.TezosOptions{Scale: *tezosScale, Seed: *seed})
			if err != nil {
				return pipeline.StageStats{}, err
			}
			if _, err := s.Run(); err != nil {
				return pipeline.StageStats{}, err
			}
			tezosScenario = s
			return pipeline.StageStats{Blocks: s.Chain.HeadLevel()}, nil
		}},
		{Name: "xrp", Run: func(context.Context) (pipeline.StageStats, error) {
			s, err := workload.BuildXRP(workload.XRPOptions{Scale: *xrpScale, Seed: *seed})
			if err != nil {
				return pipeline.StageStats{}, err
			}
			s.Run()
			xrpScenario = s
			return pipeline.StageStats{Blocks: s.State.HeadIndex()}, nil
		}},
	})
	if err != nil {
		fail(err)
	}
	for _, m := range metrics {
		fmt.Printf("chainsim: %s history ready in %s (%d blocks)\n", m.Name, m.Elapsed.Round(time.Millisecond), m.Blocks)
	}

	dir := explorer.NewDirectory(xrpScenario.State)
	for a, username := range xrpScenario.Usernames {
		dir.Register(a, username)
	}
	oracle := explorer.NewRateOracle(xrpScenario.State)

	serve := func(name string, h http.Handler) string {
		ln, err := net.Listen("tcp", *addr+":0")
		if err != nil {
			fail(err)
		}
		go func() {
			if err := cli.BoundedServer(h).Serve(ln); err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "chainsim: %s server: %v\n", name, err)
			}
		}()
		return ln.Addr().String()
	}

	eosAddr := serve("eos", rpcserve.NewEOSServer(eosScenario.Chain))
	tezosAddr := serve("tezos", rpcserve.NewTezosServer(tezosScenario.Chain))
	xrpAddr := serve("xrp", rpcserve.NewXRPServer(xrpScenario.State))
	explorerAddr := serve("explorer", explorer.NewServer(dir, oracle))

	// Verify each served API end to end through the streaming ingestion
	// path cmd/crawl and the pipeline use: stream the newest blocks into
	// the chain's aggregator and report what decoded.
	if *selfCheck > 0 {
		for _, c := range []struct {
			chain, endpoint string
			head            int64
		}{
			{"eos", "http://" + eosAddr, int64(eosScenario.Chain.HeadNum())},
			{"tezos", "http://" + tezosAddr, tezosScenario.Chain.HeadLevel()},
			{"xrp", "ws://" + xrpAddr, xrpScenario.State.HeadIndex()},
		} {
			kit, err := core.NewStatsKit(c.chain, chain.ObservationStart, 6*time.Hour)
			if err != nil {
				fail(err)
			}
			fetcher, closeFetcher, maxWorkers, err := collect.Dial(c.chain, c.endpoint)
			if err != nil {
				fail(err)
			}
			ccfg := collect.CrawlConfig{From: max(1, c.head-*selfCheck+1), To: c.head, Workers: 4}
			if maxWorkers > 0 {
				ccfg.Workers = maxWorkers
			}
			res, _, err := core.IngestCrawl(context.Background(), fetcher, ccfg, kit.Decoder, core.IngestConfig{})
			closeFetcher()
			if err != nil {
				fail(fmt.Errorf("%s self-check: %w", c.chain, err))
			}
			fmt.Printf("chainsim: %s self-check: streamed %d blocks, %d txs/ops\n", c.chain, res.Blocks, kit.Txs())
		}
	}

	fmt.Printf("EOS RPC:       http://%s (head block %d)\n", eosAddr, eosScenario.Chain.HeadNum())
	fmt.Printf("Tezos RPC:     http://%s (head level %d)\n", tezosAddr, tezosScenario.Chain.HeadLevel())
	fmt.Printf("XRP WebSocket: ws://%s (head ledger %d)\n", xrpAddr, xrpScenario.State.HeadIndex())
	fmt.Printf("Explorer API:  http://%s\n", explorerAddr)
	fmt.Println("chainsim: serving; Ctrl-C to stop")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Println("chainsim: bye")
}
