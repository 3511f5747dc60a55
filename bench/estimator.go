package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// refSerialMS and refParallelMS are the reference kernel's two medians on
// the reference box (the 2-vCPU sandbox this benchmark landed on) in its
// quieter hours, in milliseconds: the pass on one goroutine and the passes
// on two. Every duration the benchmark reports is divided by how much slower
// than these the kernel ran next to it (kernelReading.slowdown), so a
// reported value reads as "what this would have taken on the reference box
// on a quiet day" and two runs agree while the machine underneath drifts.
// Changing either constant rescales every timing metric: they change only in
// a PR that re-measures the baseline. refNominalMS, their sum, is the
// REF_NOMINAL_MS every report echoes.
const (
	refSerialMS   = 35.0
	refParallelMS = 35.0
	refNominalMS  = refSerialMS + refParallelMS
)

// The kernel's working set: kernelDocs synthetic JSON documents of about
// kernelDocBytes each (8 MiB together, well past L2 so memory contention
// from a neighbour shows in the kernel as it does in the workloads).
const (
	kernelDocs     = 512
	kernelDocBytes = 16 << 10
	kernelPasses   = 2
	kernelThreads  = 2
)

// refKernel is the yardstick the estimator divides by: encoding/json.Valid
// plus hash/crc32 over a fixed synthetic corpus, first on one goroutine,
// then on two claiming document indexes from one atomic counter (see
// kernelReading).
// It runs no repository code and its input does not depend on -seed or on
// how the repository encodes blocks, so it measures the machine and nothing
// a PR can change.
type refKernel struct {
	docs [][]byte
	sink atomic.Uint32
}

func newRefKernel() *refKernel {
	k := &refKernel{docs: make([][]byte, kernelDocs)}
	rng := splitmix(0x5eed0fbe7c4) // fixed: the corpus is a constant
	for i := range k.docs {
		k.docs[i] = syntheticDoc(&rng, kernelDocBytes)
	}
	return k
}

// syntheticDoc hand-builds one block-shaped JSON document: an object
// holding an array of small transaction objects with string, number and
// nested-array fields.
func syntheticDoc(rng *splitmix, size int) []byte {
	const hexdigits = "0123456789abcdef"
	b := make([]byte, 0, size+256)
	b = append(b, `{"block_num":`...)
	b = strconv.AppendUint(b, rng.next()%1_000_000, 10)
	b = append(b, `,"transactions":[`...)
	for n := 0; len(b) < size; n++ {
		if n > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":"`...)
		for j := 0; j < 32; j++ {
			b = append(b, hexdigits[rng.next()%16])
		}
		b = append(b, `","amount":`...)
		b = strconv.AppendFloat(b, float64(rng.next()%1_000_000)/1e4, 'f', 4, 64)
		b = append(b, `,"ok":true,"path":[`...)
		for j := uint64(0); j < 1+rng.next()%4; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, rng.next()%4096, 10)
		}
		b = append(b, `],"memo":"transfer é \"quoted\""}`...)
	}
	b = append(b, `]}`...)
	return b
}

// kernelReading is one timing of the reference kernel: one pass on one
// goroutine, then kernelPasses passes on kernelThreads goroutines, the same
// work per goroutine, timed apart.
//
// They are timed apart because this box slows in two ways. Most of the
// time it loses a share of both CPUs and the two readings rise together.
// For minutes at a stretch it loses one CPU's worth instead (the two vCPUs
// share a core): the serial reading stays put, the parallel one doubles,
// and a workload slows by as much as it keeps both CPUs busy — measured at
// landing beside a one-CPU busy loop, replay by 1.45×, coordinate 1.3×,
// crawl 1.1×, serve and query not at all. One yardstick cannot follow both:
// the sum of the two readings, which the first sizing used, read 40 % slow
// for whole runs in which serve had not slowed, and spread its ops_per_s by
// 21 % over ten runs.
type kernelReading struct{ serial, parallel time.Duration }

// ms is the whole kernel's time, the figure ref.kernel_ms reports.
func (k kernelReading) ms() float64 { return (k.serial + k.parallel).Seconds() * 1e3 }

// between averages the readings taken immediately before and after a
// stretch of work, so drift slower than the stretch cancels.
func between(before, after kernelReading) kernelReading {
	return kernelReading{(before.serial + after.serial) / 2, (before.parallel + after.parallel) / 2}
}

// slowdown is how many times slower than the reference box the machine ran
// work that keeps both CPUs busy for the share parallel of its time and one
// for the rest: the two readings over their nominals, weighted by that
// share. Each workload's share is a constant beside its definition
// (workloads.go), fitted at landing; README.md has the method.
func (k kernelReading) slowdown(parallel float64) float64 {
	return (1-parallel)*k.serial.Seconds()*1e3/refSerialMS + parallel*k.parallel.Seconds()*1e3/refParallelMS
}

func (k *refKernel) run() kernelReading {
	return kernelReading{serial: k.scan(1, 1), parallel: k.scan(kernelThreads, kernelPasses)}
}

// scan validates and checksums the corpus passes times on threads
// goroutines claiming document indexes from one atomic counter.
func (k *refKernel) scan(threads, passes int) time.Duration {
	start := time.Now()
	var next atomic.Int64
	total := int64(len(k.docs) * passes)
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum uint32
			for {
				i := next.Add(1) - 1
				if i >= total {
					break
				}
				doc := k.docs[i%int64(len(k.docs))]
				if !json.Valid(doc) {
					panic("bench: reference corpus is not valid JSON")
				}
				sum ^= crc32.ChecksumIEEE(doc)
			}
			k.sink.Add(sum)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// roundResult is what one round of a workload hands the estimator: the
// duration of its measured phase, how much work that phase did, what it
// allocated, and the correctness tally.
type roundResult struct {
	elapsed   time.Duration
	ops       int64 // blocks ingested, or requests answered
	mallocs   uint64
	allocated uint64 // bytes
	gcCycles  uint32
	attempted int64
	failed    int64
	// oracle is the in-round single-process baseline (coordinate's
	// untraced rounds); zero when not taken.
	oracle time.Duration
	// open-loop samples (serve only).
	latencies []time.Duration
	lateness  []time.Duration
	ageMS     []float64
	publishes int64
	retries   int64
}

// sample is one measured round with the kernel readings around it.
type sample struct {
	roundResult
	kernel   kernelReading // mean of the readings before and after
	slowdown float64       // kernel.slowdown at the workload's parallel share
	refSec   float64       // elapsed at reference speed: elapsed ÷ slowdown
	traced   bool
}

// measure runs rounds until both minRounds have completed and budget has
// elapsed, timing the reference kernel before the first round and after
// every round. A round's reference-speed time uses the mean of the two
// kernel readings that bracket it, so drift slower than one round cancels;
// parallel is the workload's parallel share (kernelReading.slowdown).
// The collector is left to its own pacing, as in a long-running crawl: a
// forced collection before every round makes the next cycle due once the
// round has allocated as much as is live (about 58 MB of dataset and
// corpus), which is where replay's 60 MB a round ends, so whole processes
// flip between one and zero mid-round cycles —
// and, through the sync.Pool arenas a cycle empties, between two
// allocation counts (at the first sizing coordinate read 291 or 231 a
// block this way). coordinate alone collects before its two timed passes
// (workloads.go says why); its 41 MB a pass stays clear of that point, and
// sixteen processes out of sixteen saw no cycle inside a pass and 235 to
// 237 allocations a block. A PR that grows that pass by 40 % reaches it;
// allocs_per_op's spread on coordinate is where that would show.
// round receives the round index; traced tells it (and the returned
// sample) whether this round carries the tracer.
func measure(budget time.Duration, minRounds int, kernel func() kernelReading, parallel float64, traceEvery int,
	round func(i int, traced bool) (roundResult, error)) ([]sample, error) {
	start := time.Now()
	before := kernel()
	var out []sample
	for i := 0; i < minRounds || time.Since(start) < budget; i++ {
		traced := traceEvery > 0 && i%traceEvery == traceEvery-1
		res, err := round(i, traced)
		if err != nil {
			return out, fmt.Errorf("round %d: %w", i, err)
		}
		after := kernel()
		s := sample{roundResult: res, traced: traced, kernel: between(before, after)}
		s.slowdown = s.kernel.slowdown(parallel)
		s.refSec = res.elapsed.Seconds() / s.slowdown
		out = append(out, s)
		before = after
	}
	return out, nil
}

// quartiles returns the 25th, 50th and 75th percentiles of vals (linear
// interpolation between order statistics). It sorts a copy. The estimator
// keeps its own few lines of statistics rather than call internal/stats:
// that package is code under test (serve's /v1/percentiles runs on it), and
// what measures a change must not move with the change.
func quartiles(vals []float64) (p25, p50, p75 float64) {
	if len(vals) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantileSorted(s, 0.25), quantileSorted(s, 0.50), quantileSorted(s, 0.75)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// splitmix is the benchmark's PRNG (SplitMix64): tiny, seedable, and
// independent of math/rand's algorithm, which may change between Go
// releases, and of the repository's own chain.RNG, which a PR may change.
// Every seeded choice the benchmark makes — scenario seeds, query mix, send
// schedule — derives from -seed through it.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// derive returns an independent stream for a named purpose.
func derive(seed int64, stream uint64) splitmix {
	s := splitmix(uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1342543de82ef95)
	s.next()
	return s
}
