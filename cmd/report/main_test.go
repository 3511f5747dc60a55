package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
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
	var out, diag bytes.Buffer
	if err := replayArchives(context.Background(), loc, 1, 100, 200, &out, slog.New(slog.NewTextHandler(&diag, nil))); err != nil {
		t.Fatalf("ranged replay past the archive failed: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("ranged replay past the archive printed figures:\n%s", out.String())
	}
	if !strings.Contains(diag.String(), `msg="skipping archive with no blocks to replay" chain=eos dir=`+loc+" from=100 to=200") {
		t.Errorf("the skipped archive was not logged:\n%s", diag.String())
	}
}

// TestReplayRefusesBrokenArchives: report -replay refuses an archive with
// holes (an interrupted crawl that was never resumed) and one whose segment
// was written before segments were cut into gzip members, naming how to
// fix each, before it prints a figure.
func TestReplayRefusesBrokenArchives(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(t *testing.T, dir string)
		want    []string
		corrupt bool
	}{
		{"with holes", func(t *testing.T, dir string) {
			writeArchive(t, dir, 1, 2, 3, 4, 7, 8)
		}, []string{"is incomplete: 6 blocks in [1, 8] — rerun the crawl with the same -archive"}, false},
		{"written before members", func(t *testing.T, dir string) {
			writeArchive(t, dir, 1, 2, 3, 4)
			wholeObjectSegment(t, dir)
		}, []string{"segment-000001.gz: its first gzip member states no length", "re-archive"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			var out bytes.Buffer
			err := replayArchives(context.Background(), dir, 1, 0, 0, &out, slog.New(slog.DiscardHandler))
			if errors.Is(err, archive.ErrCorrupt) != tc.corrupt {
				t.Fatalf("err = %v, corrupt: %v, want %v", err, errors.Is(err, archive.ErrCorrupt), tc.corrupt)
			}
			for _, want := range tc.want {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %v, want it to say %q", err, want)
				}
			}
			if out.Len() != 0 {
				t.Fatalf("printed figures for a broken archive:\n%s", out.String())
			}
		})
	}
}

// writeArchive archives one opaque EOS payload per block number at dir.
func writeArchive(t *testing.T, dir string, nums ...int64) {
	t.Helper()
	w, err := archive.NewWriter(archive.WriterConfig{Dir: dir, Chain: "eos"})
	if err != nil {
		t.Fatal(err)
	}
	for _, num := range nums {
		if err := w.Append(num, []byte(`{"opaque":true}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// wholeObjectSegment rewrites dir's first segment as one gzip object without
// the length subfield, as segments were written before they were cut into
// members, and re-stamps its size and checksum in the manifest.
func wholeObjectSegment(t *testing.T, dir string) {
	t.Helper()
	seg := filepath.Join(dir, "segment-000001.gz")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var obj bytes.Buffer
	zw := gzip.NewWriter(&obj)
	zw.Write(stream)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, obj.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var man archive.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(obj.Bytes())
	man.Segments[0].SHA256, man.Segments[0].CompBytes = hex.EncodeToString(sum[:]), int64(obj.Len())
	if raw, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, raw, 0o644); err != nil {
		t.Fatal(err)
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
