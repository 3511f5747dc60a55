package chain

import (
	"math"
	"testing"
	"time"
)

func TestClockTick(t *testing.T) {
	c := NewClock(ObservationStart, 500*time.Millisecond)
	if !c.Now().Equal(ObservationStart) {
		t.Fatalf("clock starts at %v", c.Now())
	}
	c.Tick()
	c.Tick()
	want := ObservationStart.Add(time.Second)
	if !c.Now().Equal(want) {
		t.Fatalf("after 2 ticks clock = %v, want %v", c.Now(), want)
	}
}

func TestClockRejectsBadSteps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-step clock did not panic")
		}
	}()
	NewClock(ObservationStart, 0)
}

func TestObservationWindowMatchesPaper(t *testing.T) {
	// The paper's window is Oct 1 — Dec 31 2019: 92 days.
	days := ObservationEnd.Sub(ObservationStart).Hours() / 24
	if days < 91.9 || days > 92.1 {
		t.Fatalf("observation window is %.2f days, want ~92", days)
	}
	if !EIDOSLaunch.After(ObservationStart) || !EIDOSLaunch.Before(ObservationEnd) {
		t.Fatal("EIDOS launch outside the observation window")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Int63n(math.MaxInt64) != b.Int63n(math.MaxInt64) {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestWeightedPickDistribution(t *testing.T) {
	g := NewRNG(42)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[g.WeightedPick([]float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Fatalf("weights not respected: %v", counts)
	}
	frac := float64(counts[2]) / 30000
	if frac < 0.65 || frac > 0.75 {
		t.Fatalf("weight-7 bucket got %.3f of draws, want ~0.7", frac)
	}
}

func TestParetoHeavyTail(t *testing.T) {
	g := NewRNG(3)
	over := 0
	for i := 0; i < 10000; i++ {
		v := g.Pareto(1, 1.2)
		if v < 1 {
			t.Fatalf("Pareto draw %f below minimum", v)
		}
		if v > 100 {
			over++
		}
	}
	if over == 0 {
		t.Fatal("Pareto produced no tail draws above 100× minimum")
	}
}
