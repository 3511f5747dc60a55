package testkit

import (
	"maps"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) { Main(m) }

// TestRepeat: under -race a body runs rounds times at each of 1, 2 and 4
// procs and GOMAXPROCS comes back; without it the body runs once, as the
// test itself.
func TestRepeat(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	seen := make(map[int]int)
	var names []string
	Repeat(t, 3, func(t *testing.T) {
		seen[runtime.GOMAXPROCS(0)]++
		names = append(names, t.Name())
	})
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Errorf("GOMAXPROCS %d after Repeat, was %d", got, before)
	}
	want := map[int]int{before: 1}
	if Race {
		want = map[int]int{1: 3, 2: 3, 4: 3}
	}
	if !maps.Equal(seen, want) {
		t.Errorf("runs per GOMAXPROCS %v, want %v", seen, want)
	}
	if !Race && names[0] != t.Name() {
		t.Errorf("the one plain run is named %q, want the test's own %q", names[0], t.Name())
	}
}

// TestLeaked: a parked goroutine is reported by its stack until it ends.
func TestLeaked(t *testing.T) {
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-release
	}()
	if leaked := Leaked(0); len(leaked) != 1 || !strings.Contains(leaked[0], "TestLeaked.func1") {
		t.Fatalf("leaked stacks %q, want the parked goroutine's", leaked)
	}
	close(release)
	<-done
	if leaked := Leaked(time.Second); len(leaked) != 0 {
		t.Fatalf("%d goroutine(s) reported after the parked one ended:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}
