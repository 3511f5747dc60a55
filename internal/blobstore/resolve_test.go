package blobstore_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blobstore"
)

func TestResolveSchemes(t *testing.T) {
	cases := []struct {
		in      string
		wantURL string
		wantErr string
	}{
		{in: "/var/archives", wantURL: "file:///var/archives"},
		{in: "file:///var/archives", wantURL: "file:///var/archives"},
		{in: "mem://crawl1", wantURL: "mem://crawl1"},
		{in: "mem://crawl1/eos", wantURL: "mem://crawl1/eos"},
		{in: "s3://bucket/prefix?endpoint=http://localhost:9000", wantURL: "s3://bucket/prefix?endpoint=http://localhost:9000"},
		{in: "", wantErr: "empty store location"},
		{in: "file://", wantErr: "needs a path"},
		{in: "mem://", wantErr: "needs a name"},
		{in: "s3://", wantErr: "names no bucket"},
		{in: "gopher://hole", wantErr: "unsupported scheme"},
		{in: "null://", wantErr: "unsupported scheme"},
	}
	for _, c := range cases {
		st, err := blobstore.Resolve(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Resolve(%q): err %v, want containing %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("Resolve(%q): %v", c.in, err)
			continue
		}
		if st.URL() != c.wantURL {
			t.Errorf("Resolve(%q).URL() = %q, want %q", c.in, st.URL(), c.wantURL)
		}
	}
	// The unsupported-scheme error names the alternatives.
	_, err := blobstore.Resolve("gopher://hole")
	if err == nil || !strings.Contains(err.Error(), "mem://") || !strings.Contains(err.Error(), "s3://") {
		t.Errorf("unsupported-scheme error should list schemes: %v", err)
	}
}

// TestResolveMemorySharing: the same mem:// name is the same namespace;
// a prefix scopes keys but shares the underlying store and counters.
func TestResolveMemorySharing(t *testing.T) {
	ctx := context.Background()
	a, err := blobstore.Resolve("mem://shared-test")
	if err != nil {
		t.Fatal(err)
	}
	b, err := blobstore.Resolve("mem://shared-test")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Get(ctx, "k"); err != nil || string(got) != "v" {
		t.Fatalf("second resolution sees different namespace: %q, %v", got, err)
	}

	// Prefixed view over the same store.
	p, err := blobstore.Resolve("mem://shared-test/sub")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Put(ctx, "inner", []byte("pv")); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Get(ctx, "sub/inner"); err != nil || string(got) != "pv" {
		t.Fatalf("prefixed write invisible at base: %q, %v", got, err)
	}
	keys, err := p.List(ctx, "")
	if err != nil || len(keys) != 1 || keys[0] != "inner" {
		t.Fatalf("prefixed List: %v, %v", keys, err)
	}
}

// TestResolveFaulty: faulty+URL wraps the inner store in seeded chaos,
// stripping the fault parameters before the inner backend parses its own.
func TestResolveFaulty(t *testing.T) {
	ctx := context.Background()
	st, err := blobstore.Resolve("faulty+mem://resolve-faulty-test?fault=1&fault-seed=3&fault-ops=get")
	if err != nil {
		t.Fatal(err)
	}
	f, ok := st.(*blobstore.Faulty)
	if !ok {
		t.Fatalf("Resolve returned %T, want *Faulty", st)
	}
	// Only get is armed, at p=1: puts pass, every get fails injected.
	if err := f.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Put under get-only chaos: %v", err)
	}
	if _, err := f.Get(ctx, "k"); !errors.Is(err, blobstore.ErrInjected) {
		t.Fatalf("Get under p=1 chaos: %v", err)
	}
	// The write really landed on the shared inner namespace.
	inner, err := blobstore.Resolve("mem://resolve-faulty-test")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := inner.Get(ctx, "k"); err != nil || string(got) != "v" {
		t.Fatalf("inner store missing the faulty-wrapped write: %q, %v", got, err)
	}

	for _, c := range []struct{ in, wantErr string }{
		{"faulty+mem://x", "needs fault=P"},
		{"faulty+mem://x?fault=1.5", "not a probability"},
		{"faulty+mem://x?fault=zero", "not a probability"},
		{"faulty+mem://x?fault=0.5&fault-seed=pi", "not an integer"},
		{"faulty+mem://x?fault=0.5&fault-ops=teleport", "unknown op"},
		{"faulty+gopher://hole?fault=0.5", "unsupported scheme"},
	} {
		if _, err := blobstore.Resolve(c.in); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Resolve(%q): err %v, want containing %q", c.in, err, c.wantErr)
		}
	}
}

func TestJoin(t *testing.T) {
	cases := []struct{ base, elem, want string }{
		{"/var/archives", "eos", filepath.Join("/var/archives", "eos")},
		{"file:///var/archives", "eos", "file:///var/archives/eos"},
		{"file:///var/archives/", "eos", "file:///var/archives/eos"},
		{"mem://crawl1", "eos", "mem://crawl1/eos"},
		{"s3://bkt/pre?endpoint=http://h:9", "eos", "s3://bkt/pre/eos?endpoint=http://h:9"},
	}
	for _, c := range cases {
		if got := blobstore.Join(c.base, c.elem); got != c.want {
			t.Errorf("Join(%q, %q) = %q, want %q", c.base, c.elem, got, c.want)
		}
	}
	if got := blobstore.Join("s3://bkt?endpoint=e", "a", "b"); got != "s3://bkt/a/b?endpoint=e" {
		t.Errorf("multi-elem Join: %q", got)
	}
}
