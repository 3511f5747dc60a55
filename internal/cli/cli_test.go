package cli

import (
	"flag"
	"strings"
	"testing"
)

func parse(t *testing.T, mode Mode, args ...string) (*ArchiveFlags, error) {
	t.Helper()
	var a ArchiveFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	a.Register(fs, mode)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &a, a.Validate()
}

func TestArchiveFlagsValidate(t *testing.T) {
	cases := []struct {
		name    string
		mode    Mode
		args    []string
		wantErr string
	}{
		{"crawl defaults", ModeCrawl, nil, ""},
		{"crawl archive url", ModeCrawl, []string{"-archive", "mem://x"}, ""},
		{"crawl bad scheme", ModeCrawl, []string{"-archive", "ftp://x"}, "unsupported scheme"},
		{"crawl from zero", ModeCrawl, []string{"-from", "0"}, "pass from >= 1"},
		{"crawl inverted", ModeCrawl, []string{"-from", "10", "-to", "5"}, "not a block range"},
		{"crawl to head", ModeCrawl, []string{"-from", "10"}, ""},
		{"report defaults", ModeReport, nil, ""},
		{"report range needs replay", ModeReport, []string{"-from", "1", "-to", "5"}, "need -replay"},
		{"report half range", ModeReport, []string{"-replay", "mem://x", "-from", "3"}, "not a block range"},
		{"report inverted", ModeReport, []string{"-replay", "mem://x", "-from", "9", "-to", "2"}, "not a block range"},
		{"report full range", ModeReport, []string{"-replay", "mem://x", "-from", "2", "-to", "9"}, ""},
		{"report bad replay url", ModeReport, []string{"-replay", "gopher://x"}, "unsupported scheme"},
		{"serve defaults", ModeServe, nil, ""},
		{"serve inverted", ModeServe, []string{"-from", "7", "-to", "3"}, "not a block range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse(t, tc.mode, tc.args...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}
