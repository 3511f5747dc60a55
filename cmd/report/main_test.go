package main

import (
	"bytes"
	"context"
	"flag"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/cli"
)

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
	if err := replayArchives(context.Background(), loc, 1, 100, 200, &out); err != nil {
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
