package main

import (
	"bytes"
	"context"
	"flag"
	"runtime"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/cli"
)

func TestValidateParallel(t *testing.T) {
	cases := []struct {
		name      string
		n         int
		set       bool
		replaying bool
		wantErr   string
	}{
		{name: "default no replay", n: 0, set: false, replaying: false},
		{name: "default with replay", n: 0, set: false, replaying: true},
		{name: "sweep with replay", n: 3, set: true, replaying: true},
		// The regression: an explicit -parallel 0 or negative used to be
		// accepted and silently degenerate to a single run.
		{name: "explicit zero", n: 0, set: true, replaying: true, wantErr: "not a sweep"},
		{name: "explicit negative", n: -2, set: true, replaying: true, wantErr: "not a sweep"},
		{name: "explicit zero without replay", n: 0, set: true, replaying: false, wantErr: "not a sweep"},
		{name: "sweep without replay", n: 3, set: true, replaying: false, wantErr: "needs -replay"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateParallel(tc.n, tc.set, tc.replaying)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestReplayArchivesRangeMiss: a -from/-to window beyond an archive's
// blocks must skip it cleanly (no figures, no error) — the range open
// indexes zero blocks instead of failing, so a fleet-wide ranged replay
// tolerates archives that end before the window.
func TestReplayArchivesRangeMiss(t *testing.T) {
	loc := "mem://report-range-miss/eos"
	w, err := archive.NewWriter(archive.WriterConfig{Dir: loc, Chain: "eos"})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(1); num <= 8; num++ {
		if err := w.Append(num, []byte(`{"opaque":true}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := replayArchives(context.Background(), loc, 1, 0, 100, 200, &out); err != nil {
		t.Fatalf("ranged replay past the archive failed: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("ranged replay past the archive printed figures:\n%s", out.String())
	}
}

// TestValidateRange pins the replay-slice validation now served by
// internal/cli's ArchiveFlags in ModeReport — the CLI error contract this
// command had before the extraction.
func TestValidateRange(t *testing.T) {
	cases := []struct {
		name      string
		from, to  int64
		replaying bool
		wantErr   string
	}{
		{name: "unset no replay", replaying: false},
		{name: "unset with replay", replaying: true},
		{name: "range with replay", from: 10, to: 20, replaying: true},
		{name: "single block", from: 7, to: 7, replaying: true},
		{name: "range without replay", from: 10, to: 20, replaying: false, wantErr: "need -replay"},
		{name: "from only", from: 10, replaying: true, wantErr: "not a block range"},
		{name: "to only", to: 20, replaying: true, wantErr: "not a block range"},
		{name: "inverted", from: 20, to: 10, replaying: true, wantErr: "not a block range"},
		{name: "negative from", from: -1, to: 10, replaying: true, wantErr: "not a block range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var af cli.ArchiveFlags
			af.Register(flag.NewFlagSet("report", flag.ContinueOnError), cli.ModeReport)
			af.From, af.To = tc.from, tc.to
			if tc.replaying {
				af.Replay = "mem://validate-range"
			}
			err := af.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestFigureRenderer drives the -figure name check main runs before any
// stage starts: every advertised name resolves, a typo is refused.
func TestFigureRenderer(t *testing.T) {
	for _, name := range append(figureNames(), "ALL", "Stages") {
		if render, err := figureRenderer(name); err != nil || render == nil {
			t.Errorf("figureRenderer(%q) = %v", name, err)
		}
	}
	for _, name := range []string{"nope", "", "10", "1 "} {
		_, err := figureRenderer(name)
		if err == nil || !strings.Contains(err.Error(), "unknown figure") {
			t.Errorf("figureRenderer(%q) = %v, want an unknown-figure error", name, err)
		}
	}
}

// TestReplayWorkers: a plain replay ingests with the configured worker
// count (it used to get 1); only -parallel sweep runs vary it.
func TestReplayWorkers(t *testing.T) {
	cpus := runtime.GOMAXPROCS(0)
	cases := []struct {
		name               string
		i, sweeps, workers int
		want               int
	}{
		{"plain replay", 0, 0, 4, 4},
		{"plain replay, one per CPU", 0, 0, 0, 0},
		{"sweep first run", 0, 3, 4, 1},
		{"sweep third run", 2, 3, 4, 3},
		{"sweep reaches max", 3, 6, 4, 4},
		{"sweep wraps", 4, 6, 4, 1},
		{"sweep of one", 0, 1, 4, 1},
		{"sweep over CPUs wraps", cpus, cpus + 1, 0, 1},
	}
	for _, tc := range cases {
		if got := replayWorkers(tc.i, tc.sweeps, tc.workers); got != tc.want {
			t.Errorf("%s: replayWorkers(%d, %d, %d) = %d, want %d", tc.name, tc.i, tc.sweeps, tc.workers, got, tc.want)
		}
	}
}
