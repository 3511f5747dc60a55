package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// The machine changes in the middle of a run, in each of the two ways the
// sandbox does: both CPUs slow to half speed (the kernel's two readings and
// all of the work take twice as long), or one CPU is lost (the parallel
// reading and the parallel share of the work take twice as long, the rest
// stays). The reference-speed estimate must not move either time.
func TestReferenceSpeedCancelsDrift(t *testing.T) {
	const (
		rounds   = 40
		slowFrom = 17
		ops      = 1000
		work     = 200 * time.Millisecond
		serial   = 40 * time.Millisecond
		parallel = 36 * time.Millisecond
		share    = 0.3 // of the work keeps both CPUs busy
	)
	for _, tc := range []struct {
		name                         string
		serialFactor, parallelFactor float64
	}{
		{"both CPUs at half speed", 2, 2},
		{"one CPU lost", 1, 2},
	} {
		finished := 0 // rounds completed so far: the fake machine's clock
		factors := func() (float64, float64) {
			if finished >= slowFrom {
				return tc.serialFactor, tc.parallelFactor
			}
			return 1, 1
		}
		scale := func(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }
		samples, err := measure(0, rounds, func() kernelReading {
			fs, fp := factors()
			return kernelReading{serial: scale(serial, fs), parallel: scale(parallel, fp)}
		}, share, 0, func(int, bool) (roundResult, error) {
			fs, fp := factors()
			finished++
			return roundResult{elapsed: scale(work, (1-share)*fs+share*fp), ops: ops}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != rounds {
			t.Fatalf("%s: measured %d rounds, want %d", tc.name, len(samples), rounds)
		}
		var perSec, raw []float64
		for _, s := range samples {
			perSec = append(perSec, float64(s.ops)/s.refSec)
			raw = append(raw, float64(s.ops)/s.elapsed.Seconds())
		}
		quiet := kernelReading{serial: serial, parallel: parallel}
		want := ops / (work.Seconds() / quiet.slowdown(share))
		if got := median(perSec); math.Abs(got-want)/want > 0.02 {
			t.Errorf("%s: ops/s at reference speed = %.1f, want %.1f within 2%%", tc.name, got, want)
		}
		// The uncorrected figure, by contrast, reads the slow half.
		if got, was := median(raw), ops/work.Seconds(); math.Abs(got-was)/was < 0.2 {
			t.Errorf("%s: raw ops/s = %.1f did not register the slowdown (before it: %.1f); the test is not testing drift", tc.name, got, was)
		}
	}
}

func TestMeasureRunsUntilBudgetAndMinimum(t *testing.T) {
	n := 0
	samples, err := measure(30*time.Millisecond, 3, func() kernelReading { return kernelReading{time.Millisecond, time.Millisecond} }, 0.5, 2,
		func(i int, traced bool) (roundResult, error) {
			if traced != (i%2 == 1) {
				t.Errorf("round %d traced = %v, want odd rounds traced", i, traced)
			}
			n++
			time.Sleep(5 * time.Millisecond)
			return roundResult{elapsed: 5 * time.Millisecond, ops: 1}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != n || n < 3 {
		t.Fatalf("got %d samples from %d rounds, want at least 3 and equal", len(samples), n)
	}
}

func TestQuartiles(t *testing.T) {
	p25, p50, p75 := quartiles([]float64{5, 1, 3, 2, 4})
	if p25 != 2 || p50 != 3 || p75 != 4 {
		t.Errorf("quartiles = %v %v %v, want 2 3 4", p25, p50, p75)
	}
	if p25, p50, p75 = quartiles([]float64{1, 2}); p25 != 1.25 || p50 != 1.5 || p75 != 1.75 {
		t.Errorf("quartiles of two = %v %v %v, want 1.25 1.5 1.75", p25, p50, p75)
	}
	if _, m, _ := quartiles(nil); m != 0 {
		t.Errorf("median of nothing = %v, want 0", m)
	}
}

// The kernel's corpus is a constant: valid JSON, the same bytes every time
// it is built, whatever the seed of the run.
func TestReferenceKernelCorpusIsConstant(t *testing.T) {
	a, b := newRefKernel(), newRefKernel()
	if len(a.docs) != kernelDocs {
		t.Fatalf("%d documents, want %d", len(a.docs), kernelDocs)
	}
	for i := range a.docs {
		if !json.Valid(a.docs[i]) {
			t.Fatalf("document %d is not valid JSON", i)
		}
		if !bytes.Equal(a.docs[i], b.docs[i]) {
			t.Fatalf("document %d differs between two builds of the corpus", i)
		}
		if len(a.docs[i]) < kernelDocBytes {
			t.Fatalf("document %d is %d bytes, want at least %d", i, len(a.docs[i]), kernelDocBytes)
		}
	}
	if k := a.run(); k.serial <= 0 || k.parallel <= 0 {
		t.Errorf("kernel ran in %v + %v", k.serial, k.parallel)
	}
}

func TestDeriveStreamsDiffer(t *testing.T) {
	a, b, c := derive(1, 1), derive(1, 2), derive(2, 1)
	x, y, z := a.next(), b.next(), c.next()
	if x == y || x == z || y == z {
		t.Errorf("derived streams collide: %x %x %x", x, y, z)
	}
	again := derive(1, 1)
	if again.next() != x {
		t.Error("the same seed and stream gave a different value")
	}
}
