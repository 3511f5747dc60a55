package repro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLayering pins the one-way dependency rule: the measurement side —
// wire codecs, crawler, archive, stores, aggregation, coordinator, serving
// layer and the four binaries a crawler fleet ships — imports, of this
// module, only itself: never the simulator side (eos, tezos, xrp, workload,
// rpcserve, explorer, pipeline). The list being closed under in-module
// imports is what makes this check of direct imports a check of transitive
// ones. It reads only the import clauses of each package's non-test files,
// so it needs nothing beyond the source tree.
func TestLayering(t *testing.T) {
	measurement := []string{
		"internal/wire", "internal/collect", "internal/archive", "internal/blobstore",
		"internal/retry", "internal/stats", "internal/core", "internal/coord",
		"internal/serve", "internal/cli", "internal/chain", "internal/wsrpc", "internal/prof",
		"cmd/crawl", "cmd/coordinate", "cmd/merge", "cmd/serve",
	}

	listed := make(map[string]bool, len(measurement))
	for _, dir := range measurement {
		listed["repro/"+dir] = true
	}
	for _, dir := range measurement {
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") {
				continue
			}
			path := filepath.Join(dir, f.Name())
			parsed, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range parsed.Imports {
				target, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasPrefix(target, "repro/") && !listed[target] {
					t.Errorf("%s imports %s, which is not on the measurement list: the measurement side must not link the simulator", path, target)
				}
			}
		}
	}
}
