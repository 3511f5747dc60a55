package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload  workloadDef
	seed      int64
	budget    time.Duration // how long the measured phase lasts
	minRounds int
	trace     bool
	scales    scales
	setups    int       // set-ups per run (setup_s is their median)
	spans     io.Writer // where to dump spans after a traced run; nil = nowhere
	// kernel overrides the reference kernel (tests substitute a constant so
	// a smoke run does not pay for the real one); nil = the real kernel.
	kernel func() kernelReading
}

// metricValue is one reported metric. N is how many samples stand behind
// the median; P25/P75 bracket it (all three equal for one-shot values).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	P25   float64 `json:"p25,omitempty"`
	P75   float64 `json:"p75,omitempty"`
	// Moves repeats metrics.go's prediction: what this metric is, or which
	// end-to-end metric on which workloads a change to it should move.
	Moves string `json:"moves,omitempty"`
}

// runReport is everything one run learned.
type runReport struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Dataset   map[string]any         `json:"dataset"`
	Constants map[string]any         `json:"constants"`
	GoVersion string                 `json:"go_version"`
	// Rounds lists every measured round: its raw time, the kernel reading
	// around it, and the time at reference speed.
	Rounds []roundRow `json:"rounds"`

	budget       budget
	tracedRounds int
}

// roundRow is one measured round as the report lists it.
type roundRow struct {
	RawMS float64 `json:"raw_ms"`
	// The kernel's two readings around the round, each the mean of before
	// and after; ref_ms is raw_ms ÷ their slowdown at the workload's
	// parallel share.
	KernelSerialMS   float64 `json:"kernel_serial_ms"`
	KernelParallelMS float64 `json:"kernel_parallel_ms"`
	RefMS            float64 `json:"ref_ms"`
	Ops              int64   `json:"ops"`
	Mallocs          uint64  `json:"mallocs"`
	// OracleMS is coordinate's in-round single-process pass, raw.
	OracleMS float64 `json:"oracle_ms,omitempty"`
	Traced   bool    `json:"traced,omitempty"`
}

func (r *runReport) set(def metricDef, v float64, n int, p25, p75 float64) {
	clean := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return x
	}
	r.Metrics[def.name] = metricValue{Value: clean(v), Unit: def.unit, N: n, P25: clean(p25), P75: clean(p75), Moves: def.moves}
}

func defByName(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.name == name {
			return d
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// runWorkload sets up, measures and reports one workload.
func runWorkload(ctx context.Context, cfg runConfig) (*runReport, error) {
	kernel := cfg.kernel
	if kernel == nil {
		k := newRefKernel()
		for i := 0; i < 3; i++ {
			k.run() // warm the corpus and the scheduler
		}
		kernel = k.run
	}
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}

	// Set-up, repeated: each one is bracketed by the kernel like a round.
	var (
		env      *runEnv
		setupRef []float64
		kernels  []kernelReading
	)
	for i := 0; i < cfg.setups; i++ {
		if env != nil {
			env.ds.close()
			env = nil
		}
		runtime.GC()
		before := kernel()
		start := time.Now()
		ds, err := setUp(ctx, cfg.seed, cfg.scales)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		env = &runEnv{ds: ds, seed: cfg.seed, burst: cfg.scales.Burst}
		if cfg.workload.prepare != nil {
			if err := cfg.workload.prepare(ctx, env, t); err != nil {
				ds.close()
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		elapsed := time.Since(start)
		k := between(before, kernel())
		setupRef = append(setupRef, elapsed.Seconds()/k.slowdown(setupParallel))
		kernels = append(kernels, k)
	}
	defer env.ds.close()
	ds := env.ds

	// One unmeasured round fills caches, pools and lazy state.
	if res, err := cfg.workload.round(ctx, env, -1, nil); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	} else if res.failed > 0 {
		return nil, fmt.Errorf("warm-up round: %d of %d operations failed", res.failed, res.attempted)
	}

	traceEvery := 0
	if cfg.trace {
		traceEvery = 2 // untraced and traced rounds alternate
	}
	samples, err := measure(cfg.budget, cfg.minRounds, kernel, cfg.workload.parallel, traceEvery,
		func(i int, traced bool) (roundResult, error) {
			if !traced {
				return cfg.workload.round(ctx, env, i, nil)
			}
			t.round.Store(int32(i))
			return cfg.workload.round(ctx, env, i, t)
		})
	if err != nil {
		return nil, err
	}

	rep := &runReport{
		Workload: cfg.workload.name, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: map[string]metricValue{},
		Dataset: map[string]any{
			"blocks": ds.blocks, "txs": ds.txs, "raw_mb": float64(ds.raw) / 1e6,
			"eos_scale": cfg.scales.EOS, "tezos_scale": cfg.scales.Tezos, "xrp_scale": cfg.scales.XRP,
		},
		Constants: map[string]any{
			"GOMAXPROCS": maxProcs, "REF_NOMINAL_MS": refNominalMS, "REF_SERIAL_MS": refSerialMS, "REF_PARALLEL_MS": refParallelMS,
			"parallel_share": cfg.workload.parallel, "setup_parallel_share": setupParallel,
			"fetch_workers": fetchWorkers, "ingest_workers": ingestWorkers, "serve_ingest_workers": serveIngest,
			"client_connections": 1, "coord_shards": coordShards, "checkpoint_every": checkpointEvery,
			"publish_every_ms": publishEvery.Milliseconds(), "open_rate_per_s": openRatePerSec,
			"query_burst": cfg.scales.Burst, "segment_bytes": segmentBytes, "setups": cfg.setups, "operation": cfg.workload.op,
		},
		GoVersion: runtime.Version(),
	}

	plain, traced := rep.summarize(cfg.workload, ds, samples, setupRef, kernels)
	if !cfg.trace {
		return rep, nil
	}

	one := func(name string, v float64) { rep.set(defByName(perLayer, name), v, 1, v, v) }
	one("trace.overhead_ratio", median(series(traced, opsPerRefSec))/median(series(plain, opsPerRefSec)))
	// Spans are brought to reference speed by the kernel reading around
	// their own round, exactly as the round's end-to-end time was.
	speed := map[int32]float64{}
	for i, s := range samples {
		if s.traced {
			speed[int32(i)] = 1 / s.slowdown
		}
	}
	rep.budget = t.budget(maxProcs, speed)
	layerMetrics(rep, t, ds, len(traced))
	costs, err := unitCosts(ctx, ds, kernel)
	if err != nil {
		return nil, fmt.Errorf("unit costs: %w", err)
	}
	for name, v := range costs {
		one(name, v)
	}
	if cfg.spans != nil {
		if err := t.writeSpans(cfg.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep, nil
}

// series maps rounds to one value each.
func series(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func opsPerRefSec(s sample) float64 { return float64(s.ops) / s.refSec }

// summarize tallies correctness over every measured round and computes
// the end-to-end metrics and the run-level layer metrics from the
// untraced rounds. It returns the rounds split into untraced and traced.
func (rep *runReport) summarize(w workloadDef, ds *dataset, samples []sample, setupRef []float64, kernels []kernelReading) (plain, traced []sample) {
	// Correctness, over every measured round.
	for _, s := range samples {
		rep.Attempted += s.attempted
		rep.Failed += s.failed
		kernels = append(kernels, s.kernel)
		rep.Rounds = append(rep.Rounds, roundRow{RawMS: s.elapsed.Seconds() * 1e3,
			KernelSerialMS: s.kernel.serial.Seconds() * 1e3, KernelParallelMS: s.kernel.parallel.Seconds() * 1e3,
			RefMS: s.refSec * 1e3, Ops: s.ops, Mallocs: s.mallocs, OracleMS: s.oracle.Seconds() * 1e3, Traced: s.traced})
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	rep.tracedRounds = len(traced)

	// End-to-end metrics, from the untraced rounds.
	setQuartiles := func(defs []metricDef, name string, vals []float64) float64 {
		p25, p50, p75 := quartiles(vals)
		rep.set(defByName(defs, name), p50, len(vals), p25, p75)
		return p50
	}
	setQuartiles(endToEnd, "setup_s", setupRef)
	opsPerSec := setQuartiles(endToEnd, "ops_per_s", series(plain, opsPerRefSec))
	// Allocations per operation are the MEAN over rounds (total allocations
	// ÷ total operations), not the median: a round's count steps up when a
	// collection empties the sync.Pool arenas mid-round, so it is
	// multi-modal, and a median sits on a step and jumps with the mix of
	// modes while the mean moves smoothly.
	allocs := series(plain, func(s sample) float64 { return float64(s.mallocs) / float64(s.ops) })
	p25, _, p75 := quartiles(allocs)
	rep.set(defByName(endToEnd, "allocs_per_op"), mean(allocs), len(allocs), p25, p75)
	// The coordinated pass over the single-process pass timed right after
	// it, each at reference speed. The two are adjacent, so a slowdown of
	// both CPUs cancels in their ratio; the loss of one does not, because
	// the single-process pass keeps both busy for more of its time (the raw
	// ratio read 1.45 on a quiet box and 1.22 with a CPU lost), hence the
	// two parallel shares. A workload that coordinates nothing takes no
	// oracle and reads exactly 1.
	var overhead []float64
	for _, s := range plain {
		if s.oracle > 0 {
			overhead = append(overhead, s.refSec/(s.oracle.Seconds()/s.kernel.slowdown(oracleParallel)))
		}
	}
	if len(overhead) == 0 {
		overhead = []float64{1}
	}
	setQuartiles(endToEnd, "coord_overhead", overhead)

	// Run-level layer metrics.
	one := func(name string, v float64) { rep.set(defByName(perLayer, name), v, 1, v, v) }
	setQuartiles(perLayer, "raw.ops_per_s", series(plain, func(s sample) float64 { return float64(s.ops) / s.elapsed.Seconds() }))
	setQuartiles(perLayer, "go.alloc_kb_per_op", series(plain, func(s sample) float64 { return float64(s.allocated) / 1024 / float64(s.ops) }))
	setQuartiles(perLayer, "go.gc_cycles_per_round", series(plain, func(s sample) float64 { return float64(s.gcCycles) }))
	kernelMS := make([]float64, len(kernels))
	lost := make([]float64, len(kernels))
	for i, k := range kernels {
		kernelMS[i] = k.ms()
		lost[i] = k.slowdown(1) / k.slowdown(0)
	}
	setQuartiles(perLayer, "ref.kernel_ms", kernelMS)
	setQuartiles(perLayer, "ref.parallel_slowdown", lost)
	sort.Float64s(kernelMS)
	one("ref.drift_ratio", kernelMS[len(kernelMS)-1]/kernelMS[0])
	one("rounds", float64(len(plain)))
	if w.op == "block" {
		one("tx_per_s", opsPerSec*float64(ds.txs)/float64(ds.blocks))
		one("mb_per_s", opsPerSec*float64(ds.raw)/1e6/float64(ds.blocks))
	} else {
		one("tx_per_s", 0)
		one("mb_per_s", 0)
	}
	var retries, publishes float64
	var lat, late []time.Duration
	var ages []float64
	for _, s := range plain {
		retries += float64(s.retries)
		publishes += float64(s.publishes)
		lat, late, ages = append(lat, s.latencies...), append(late, s.lateness...), append(ages, s.ageMS...)
	}
	one("collect.retries", retries/float64(len(plain)))
	one("serve.publishes", publishes/float64(len(plain)))
	one("serve.snapshot_age_ms", mean(ages))
	latUS := microseconds(lat)
	sort.Float64s(latUS)
	for name, q := range map[string]float64{"serve.open_p50_us": 0.50, "serve.open_p99_us": 0.99, "serve.open_p999_us": 0.999} {
		v := quantileSorted(latUS, q)
		rep.set(defByName(perLayer, name), v, len(latUS), v, v)
	}
	rep.set(defByName(perLayer, "serve.open_late_us"), mean(microseconds(late)), len(late), 0, 0)

	// Everything else needs the trace; an untraced run leaves it at 0.
	for _, def := range perLayer {
		if _, ok := rep.Metrics[def.name]; !ok {
			rep.set(def, 0, 0, 0, 0)
		}
	}
	return plain, traced
}

// layerMetrics reads the decorators' spans and counts into per-layer
// metrics, normalized per traced round or per call. The budget's spans are
// already at reference speed, so every duration here is too.
func layerMetrics(rep *runReport, t *tracer, ds *dataset, rounds int) {
	b := rep.budget
	n := float64(rounds)
	one := func(name string, v float64) { rep.set(defByName(perLayer, name), v, rounds, v, v) }
	perSpan := func(l layerTime) float64 { // µs per call
		if l.spans == 0 {
			return 0
		}
		return l.total.Seconds() * 1e6 / float64(l.spans)
	}
	fetch := b.layer("collect.fetch")
	one("collect.fetch_us_per_block", perSpan(fetch))
	// What the fetch workers could have been busy: each chain's crawl phase
	// times the workers its protocol allows.
	var capacity float64
	for _, c := range ds.chains {
		capacity += float64(b.layer("phase.crawl."+c.name).total) * float64(c.workers)
	}
	if capacity > 0 {
		one("collect.fetch_busy_share", float64(fetch.total)/capacity)
	}
	one("archive.append_us_per_block", perSpan(b.layer("archive.append")))
	for _, c := range ds.chains {
		dec := b.layer("wire.decode." + c.name)
		one("wire.decode_us_per_block."+c.name, perSpan(dec))
		// Aggregation runs per batch; blocks aggregated = blocks decoded.
		if dec.spans > 0 {
			one("core.aggregate_us_per_block."+c.name, b.layer("core.aggregate."+c.name).total.Seconds()*1e6/float64(dec.spans))
		}
	}
	one("coord.lease_ops", t.count("blobstore.ops.lease")/n)
	one("coord.lease_us", perSpan(b.layer("blobstore.lease")))
	one("coord.runstate_ckpts", t.count("blobstore.puts.runstate")/n)
	one("coord.runstate_us", perSpan(b.layer("blobstore.runstate")))
	one("coord.worker_ckpts", t.count("blobstore.puts.ckpt")/n)
	if puts := t.count("blobstore.puts.ckpt"); puts > 0 {
		one("coord.worker_ckpt_kb", t.count("blobstore.put_bytes.ckpt")/puts/1024)
	}
	one("blobstore.puts", t.count("blobstore.put")/n)
	one("blobstore.put_kb", t.count("blobstore.put_bytes")/n/1024)
	one("blobstore.gets", (t.count("blobstore.get")+t.count("blobstore.getrange"))/n)
	if total, spans := b.prefixTotal("blobstore."); spans > 0 {
		one("blobstore.op_us", total.Seconds()*1e6/float64(spans))
	}
	one("budget.unattributed_share", b.unattributed)
}

func microseconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * 1e6
	}
	return out
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
