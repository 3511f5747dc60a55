package blobstore_test

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/blobstore/s3stub"
)

// backends returns one instance of every readable backend, each freshly
// scoped, plus a cleanup. The same contract suite runs over all of them.
func backends(t *testing.T) map[string]blobstore.Store {
	t.Helper()
	stub := s3stub.New()
	t.Cleanup(stub.Close)
	s3, err := blobstore.Resolve(stub.URL("bkt", "base"))
	if err != nil {
		t.Fatalf("resolve s3 stub: %v", err)
	}
	return map[string]blobstore.Store{
		"file": blobstore.NewFile(t.TempDir()),
		"mem":  blobstore.NewMemory(),
		"s3":   s3,
	}
}

func TestStoreContract(t *testing.T) {
	ctx := context.Background()
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			// Missing keys: fs.ErrNotExist from Get, GetRange, Stat.
			if _, err := st.Get(ctx, "absent"); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("Get absent: got %v, want fs.ErrNotExist", err)
			}
			if _, err := st.GetRange(ctx, "absent", 0, 4); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("GetRange absent: got %v, want fs.ErrNotExist", err)
			}
			if _, err := st.Stat(ctx, "absent"); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("Stat absent: got %v, want fs.ErrNotExist", err)
			}

			// Round-trip, including a nested key.
			data := []byte("hello blob world")
			for _, key := range []string{"manifest.json", "eos/segment-000001.gz"} {
				if err := st.Put(ctx, key, data); err != nil {
					t.Fatalf("Put %s: %v", key, err)
				}
				got, err := st.Get(ctx, key)
				if err != nil || string(got) != string(data) {
					t.Fatalf("Get %s: %q, %v", key, got, err)
				}
				if n, err := st.Stat(ctx, key); err != nil || n != int64(len(data)) {
					t.Fatalf("Stat %s: %d, %v", key, n, err)
				}
			}

			// Ranged gets: interior, suffix (n<0), and out-of-bounds.
			if got, err := st.GetRange(ctx, "manifest.json", 6, 4); err != nil || string(got) != "blob" {
				t.Errorf("GetRange interior: %q, %v", got, err)
			}
			if got, err := st.GetRange(ctx, "manifest.json", 11, -1); err != nil || string(got) != "world" {
				t.Errorf("GetRange suffix: %q, %v", got, err)
			}
			if _, err := st.GetRange(ctx, "manifest.json", 5, 100); err == nil {
				t.Errorf("GetRange out of bounds: want error, got nil")
			}

			// Overwrite replaces.
			if err := st.Put(ctx, "manifest.json", []byte("v2")); err != nil {
				t.Fatalf("overwrite: %v", err)
			}
			if got, _ := st.Get(ctx, "manifest.json"); string(got) != "v2" {
				t.Errorf("after overwrite: %q", got)
			}

			// List: sorted, prefix-filtered.
			keys, err := st.List(ctx, "")
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			want := []string{"eos/segment-000001.gz", "manifest.json"}
			if !reflect.DeepEqual(keys, want) {
				t.Errorf("List: got %v, want %v", keys, want)
			}
			keys, err = st.List(ctx, "eos/")
			if err != nil || !reflect.DeepEqual(keys, []string{"eos/segment-000001.gz"}) {
				t.Errorf("List eos/: got %v, %v", keys, err)
			}

			// Delete: removes, and is idempotent.
			if err := st.Delete(ctx, "manifest.json"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := st.Get(ctx, "manifest.json"); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("Get deleted: got %v, want fs.ErrNotExist", err)
			}
			if err := st.Delete(ctx, "manifest.json"); err != nil {
				t.Errorf("Delete absent: %v, want nil", err)
			}

			// Invalid keys rejected before hitting the backend.
			for _, bad := range []string{"", "/abs", "trail/", "a//b", "../up", "a/./b"} {
				if err := st.Put(ctx, bad, data); err == nil {
					t.Errorf("Put %q: want error", bad)
				}
			}
		})
	}
}

// TestFilePutAtomic hammers one key with concurrent writers while a
// reader polls: every observed value must be one of the complete payloads,
// never a splice or a truncation.
func TestFilePutAtomic(t *testing.T) {
	ctx := context.Background()
	st := blobstore.NewFile(t.TempDir())

	payload := func(i int) []byte {
		return []byte(strings.Repeat(fmt.Sprintf("writer-%02d|", i), 512))
	}
	valid := make(map[string]bool)
	for i := 0; i < 8; i++ {
		valid[string(payload(i))] = true
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := st.Put(ctx, "contested", payload(i)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(i)
	}
	go func() { wg.Wait(); close(stop) }()

	for {
		select {
		case <-stop:
			return
		default:
		}
		got, err := st.Get(ctx, "contested")
		if errors.Is(err, fs.ErrNotExist) {
			continue // not yet published
		}
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if !valid[string(got)] {
			t.Fatalf("observed torn object (%d bytes)", len(got))
		}
	}
}

// TestFileSweep verifies stray .tmp files (a crash mid-Put) are invisible
// to List and removed by Sweep.
func TestFileSweep(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := blobstore.NewFile(dir)
	if err := st.Put(ctx, "kept.gz", []byte("x")); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "crashed.gz.tmp")
	if err := os.WriteFile(stray, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := st.List(ctx, "")
	if err != nil || !reflect.DeepEqual(keys, []string{"kept.gz"}) {
		t.Fatalf("List with stray tmp: %v, %v", keys, err)
	}
	if err := st.Sweep(); err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("stray tmp survived sweep")
	}
	if got, err := st.Get(ctx, "kept.gz"); err != nil || string(got) != "x" {
		t.Errorf("kept object after sweep: %q, %v", got, err)
	}
}

// TestFileListMissingRoot: a root that was never created reports
// fs.ErrNotExist (Discover relies on distinguishing this from empty).
func TestFileListMissingRoot(t *testing.T) {
	st := blobstore.NewFile(filepath.Join(t.TempDir(), "never-created"))
	if _, err := st.List(context.Background(), ""); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("List missing root: got %v, want fs.ErrNotExist", err)
	}
}

// TestMemoryCounters: the op/byte counters that range-replay tests lean on.
func TestMemoryCounters(t *testing.T) {
	ctx := context.Background()
	m := blobstore.NewMemory()
	if err := m.Put(ctx, "a", []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.GetRange(ctx, "a", 2, 3); err != nil {
		t.Fatal(err)
	}
	if got := m.Ops(blobstore.OpPut); got != 1 {
		t.Errorf("put ops: %d", got)
	}
	if got := m.Ops(blobstore.OpGet); got != 1 {
		t.Errorf("get ops: %d", got)
	}
	if got := m.Ops(blobstore.OpGetRange); got != 1 {
		t.Errorf("getrange ops: %d", got)
	}
	in, out := m.Bytes()
	if in != 8 || out != 11 {
		t.Errorf("bytes: in=%d out=%d, want 8/11", in, out)
	}
	m.ResetOps()
	if got := m.Ops(blobstore.OpGet); got != 0 {
		t.Errorf("ops after reset: %d", got)
	}
	if m.Len() != 1 {
		t.Errorf("Len after reset: %d, want 1 (objects survive)", m.Len())
	}
}

// TestMemoryDefensiveCopies: mutating a slice handed to Put or returned
// from Get must not corrupt the stored object.
func TestMemoryDefensiveCopies(t *testing.T) {
	ctx := context.Background()
	m := blobstore.NewMemory()
	buf := []byte("original")
	if err := m.Put(ctx, "k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	got, _ := m.Get(ctx, "k")
	got[1] = 'Y'
	again, _ := m.Get(ctx, "k")
	if string(again) != "original" {
		t.Fatalf("stored object mutated: %q", again)
	}
}
