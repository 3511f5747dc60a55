package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/chain"
	"repro/internal/core"
)

// discard is an http.ResponseWriter that drops the reply: a handler called
// into it costs what the handler costs, with no socket.
type discard struct {
	h      http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(code int)        { d.status = code }

// callHandler runs one request through h into a discard writer.
func callHandler(h http.Handler, method, target, body string) int {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, target, rd)
	if err != nil {
		panic(err) // targets are built in this file
	}
	w := &discard{h: make(http.Header), status: http.StatusOK}
	h.ServeHTTP(w, req)
	return w.status
}

// unitCosts takes the per-layer numbers no decorator can: single-threaded
// direct calls into each package's public functions over the dataset, one
// layer at a time, nothing else running. They are the same on every
// workload; a traced run of any workload reports them. Like a round, each
// section is bracketed by the reference kernel and its durations are
// reported at reference speed — by the kernel's serial reading alone
// (parallel share 0): the calls keep one CPU busy.
func unitCosts(ctx context.Context, ds *dataset, kernel func() kernelReading) (map[string]float64, error) {
	out := map[string]float64{}
	us := func(d time.Duration, n int64) float64 { return d.Seconds() * 1e6 / float64(n) }
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	// sectionSpeed closes a section: it times the kernel again and returns
	// what to multiply the section's durations by.
	last := kernel()
	sectionSpeed := func() float64 {
		now := kernel()
		k := between(last, now)
		last = now
		return 1 / k.slowdown(0)
	}

	// rpcserve: the get_block handlers of the two HTTP chains into a
	// discard writer (lookup, convert, encode). XRP's WebSocket server has
	// no per-ledger entry point, so its encode stays unattributed.
	var encode time.Duration
	var encoded int64
	for _, c := range ds.chains {
		start := time.Now()
		for n := int64(1); n <= c.head; n++ {
			var status int
			switch c.name {
			case "eos":
				status = callHandler(c.handler, http.MethodPost, "/v1/chain/get_block", `{"block_num_or_id":`+strconv.FormatInt(n, 10)+`}`)
			case "tezos":
				status = callHandler(c.handler, http.MethodGet, "/chains/main/blocks/"+strconv.FormatInt(n, 10), "")
			default:
				continue
			}
			if status != http.StatusOK {
				return nil, fmt.Errorf("%s handler answered %d for block %d", c.name, status, n)
			}
			encoded++
		}
		encode += time.Since(start)
	}
	out["rpcserve.encode_us_per_block"] = us(encode, encoded) * sectionSpeed()

	// archive: open (sha256 + gunzip verify, one worker here where replay
	// uses two), a no-op walk, compression.
	var open, walk time.Duration
	var comp int64
	for _, c := range ds.chains {
		start := time.Now()
		rd, err := archive.OpenWith(c.store.URL(), archive.OpenOptions{Store: c.store, Workers: 1})
		open += time.Since(start)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		err = rd.Replay(ctx, 1, func(int, int64, []byte) error { return nil })
		walk += time.Since(start)
		if err != nil {
			return nil, err
		}
		keys, err := c.store.List(ctx, "segment-")
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			n, err := c.store.Stat(ctx, k)
			if err != nil {
				return nil, err
			}
			comp += n
		}
	}
	speed := sectionSpeed()
	out["archive.open_ms"] = ms(open) * speed
	out["archive.walk_us_per_block"] = us(walk, ds.blocks) * speed
	out["archive.comp_ratio"] = float64(ds.raw) / float64(comp)

	// wire: decode-only allocations. The first walk fills the arenas; the
	// second is the steady state that is counted.
	var decodeAllocs uint64
	for _, c := range ds.chains {
		dec := newKit(c.name).Decoder.(fullDecoder)
		one := make([]any, 1)
		walk := func() error {
			return c.reader.Replay(ctx, 1, func(_ int, num int64, raw []byte) error {
				v, err := dec.Decode(num, raw)
				if err != nil {
					return err
				}
				one[0] = v
				dec.ReleaseBatch(one)
				return nil
			})
		}
		if err := walk(); err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := walk(); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		decodeAllocs += after.Mallocs - before.Mallocs
	}
	out["wire.decode_allocs_per_block"] = float64(decodeAllocs) / float64(ds.blocks)

	// core: 1-worker against 2-worker replay (the single-thread baseline),
	// alternated three times and left as the ratio the box gave: it is the
	// one figure here that is about the second CPU, so it reads low while
	// ref.parallel_slowdown reads high. Then merge, render and the shard
	// codec on the fully ingested state.
	ingest := func(workers int) (time.Duration, []core.StatsKit, error) {
		kits := make([]core.StatsKit, len(ds.chains))
		start := time.Now()
		for i, c := range ds.chains {
			kits[i] = newKit(c.name)
			if _, err := core.IngestArchive(ctx, c.reader, kits[i].Decoder, core.IngestConfig{Workers: workers}); err != nil {
				return 0, nil, err
			}
		}
		return time.Since(start), kits, nil
	}
	var one, two []float64
	var kits []core.StatsKit
	for i := 0; i < 3; i++ {
		runtime.GC()
		d1, _, err := ingest(1)
		if err != nil {
			return nil, err
		}
		d2, k, err := ingest(2)
		if err != nil {
			return nil, err
		}
		one, two, kits = append(one, d1.Seconds()), append(two, d2.Seconds()), k
	}
	out["core.replay_scaling_2w"] = median(one) / median(two)

	sectionSpeed() // the section below starts here, not before the replays
	var renderT, encodeT, decodeT, mergeT time.Duration
	var shardBytes int
	for i, c := range ds.chains {
		start := time.Now()
		figures := kits[i].Summarize().Render()
		renderT += time.Since(start)
		if figures != c.figures {
			return nil, fmt.Errorf("%s: 2-worker replay renders figures that differ from the oracle", c.name)
		}
		st := kits[i].State()
		st.SetCovered(core.BlockRange{From: 1, To: c.head})
		start = time.Now()
		blob, err := core.EncodeShard(st, 1)
		encodeT += time.Since(start)
		if err != nil {
			return nil, err
		}
		shardBytes += len(blob)
		start = time.Now()
		decoded, err := core.DecodeShard(blob)
		decodeT += time.Since(start)
		if err != nil {
			return nil, err
		}
		dst, err := core.NewShardState(c.name, chain.ObservationStart, 6*time.Hour)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		err = dst.Merge(decoded)
		mergeT += time.Since(start)
		if err != nil {
			return nil, err
		}
		if dst.Summary().Render() != c.figures {
			return nil, fmt.Errorf("%s: shard encode → decode → merge renders figures that differ from the oracle", c.name)
		}
	}
	speed = sectionSpeed()
	out["core.render_ms"] = ms(renderT) * speed
	out["core.shard_encode_ms"] = ms(encodeT) * speed
	out["core.shard_decode_ms"] = ms(decodeT) * speed
	out["core.shard_kb"] = float64(shardBytes) / 1024
	out["core.merge_ms"] = ms(mergeT) * speed

	// serve: one publish of the drained three-chain state, and each
	// endpoint class's handler into a discard writer.
	srv, err := startServer(nil)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	for _, c := range ds.chains {
		if _, err := feedArchive(ctx, srv.pub, c, nil, nil); err != nil {
			return nil, err
		}
	}
	sectionSpeed() // the feeds above are not part of the section
	var publish []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		srv.pub.Publish()
		publish = append(publish, ms(time.Since(start)))
	}
	if status, body, _, err := srv.client.get(ctx, "/v1/figures"); err != nil || status != http.StatusOK || string(body) != ds.figures {
		return nil, fmt.Errorf("drained publisher serves figures that differ from the oracle (status %d, err %v)", status, err)
	}
	const calls = 200
	handlerUS := map[string]float64{}
	for _, class := range []string{"status", "summary", "figures", "percentiles"} {
		targets := make([]string, len(ds.chains))
		for i, c := range ds.chains {
			targets[i] = map[string]string{
				"status":      "/v1/status",
				"summary":     "/v1/summary/" + c.name,
				"figures":     "/v1/figures/" + c.name,
				"percentiles": "/v1/percentiles/" + c.name + "?p=50,90,99",
			}[class]
		}
		start := time.Now()
		for i := 0; i < calls; i++ {
			target := targets[i%len(targets)]
			if status := callHandler(srv.handler, http.MethodGet, target, ""); status != http.StatusOK {
				return nil, fmt.Errorf("serve handler answered %d for %s", status, target)
			}
		}
		handlerUS[class] = us(time.Since(start), calls)
	}
	speed = sectionSpeed()
	out["serve.publish_ms"] = median(publish) * speed
	for class, v := range handlerUS {
		out["serve.handler_us."+class] = v * speed
	}
	return out, nil
}
