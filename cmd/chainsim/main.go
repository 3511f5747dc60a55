// Command chainsim generates the three calibrated chain histories and
// serves them over the same network APIs the paper crawled:
//
//   - EOS:   HTTP JSON RPC (POST /v1/chain/get_info, /v1/chain/get_block)
//   - Tezos: REST RPC (GET /chains/main/blocks/{level})
//   - XRP:   rippled-style WebSocket (ledger, server_info) plus an
//     explorer serving the DEX's exchange records
//
// It prints the listening endpoints and blocks until interrupted, so
// cmd/crawl (or any HTTP/WebSocket client) can collect from it. It serves
// and does not crawl itself: the crawlers pointed at it are the end-to-end
// check, as in CI's smoke job: one coordinate run against it, then a merge
// of that run's store.
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

	"repro/internal/cli"
	"repro/internal/explorer"
	"repro/internal/rpcserve"
	"repro/internal/workload"
)

func main() {
	eosScale := flag.Int64("eos-scale", 50_000, "EOS scale divisor")
	tezosScale := flag.Int64("tezos-scale", 800, "Tezos scale divisor")
	xrpScale := flag.Int64("xrp-scale", 20_000, "XRP scale divisor")
	seed := flag.Int64("seed", 1, "scenario seed")
	addr := flag.String("addr", "127.0.0.1", "listen address")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "chainsim:", err)
		os.Exit(1)
	}

	// Each history is built, timed and reported in turn.
	history := func(name string, build func() (blocks int64, err error)) {
		start := time.Now()
		blocks, err := build()
		if err != nil {
			fail(fmt.Errorf("%s history: %w", name, err))
		}
		fmt.Printf("chainsim: %s history ready in %s (%d blocks)\n", name, time.Since(start).Round(time.Millisecond), blocks)
	}
	var (
		eosScenario   *workload.EOSScenario
		tezosScenario *workload.TezosScenario
		xrpScenario   *workload.XRPScenario
	)
	fmt.Println("chainsim: generating EOS, Tezos and XRP histories…")
	history("eos", func() (int64, error) {
		s, err := workload.BuildEOS(workload.EOSOptions{Scale: *eosScale, Seed: *seed})
		if err != nil {
			return 0, err
		}
		s.Run()
		eosScenario = s
		return int64(s.Chain.HeadNum()), nil
	})
	history("tezos", func() (int64, error) {
		s, err := workload.BuildTezos(workload.TezosOptions{Scale: *tezosScale, Seed: *seed})
		if err != nil {
			return 0, err
		}
		if _, err := s.Run(); err != nil {
			return 0, err
		}
		tezosScenario = s
		return s.Chain.HeadLevel(), nil
	})
	history("xrp", func() (int64, error) {
		s, err := workload.BuildXRP(workload.XRPOptions{Scale: *xrpScale, Seed: *seed})
		if err != nil {
			return 0, err
		}
		s.Run()
		xrpScenario = s
		return s.State.HeadIndex(), nil
	})

	dir := explorer.NewDirectory(xrpScenario.State)
	for a, username := range xrpScenario.Usernames {
		dir.Register(a, username)
	}

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
	explorerAddr := serve("explorer", explorer.NewServer(dir))

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
