package repro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestLayering pins the one-way dependency rule: the measurement side —
// wire codecs, crawler, archive, stores, aggregation, coordinator, serving
// layer — never links the simulator side. It reads only the import clauses
// of each package's non-test files, so it needs nothing beyond the source
// tree.
func TestLayering(t *testing.T) {
	measurement := []string{"wire", "collect", "archive", "blobstore", "retry", "stats", "core", "coord", "serve", "cli"}
	simulator := []string{"rpcserve", "explorer", "workload", "pipeline", "eos", "tezos", "xrp"}
	// The residual edges, which may only shrink: an entry that stops
	// matching an import fails the test until it is deleted here.
	allowed := map[string][]string{
		"wire": {"eos", "tezos", "xrp"}, // convert.go fills arena structs from simulator blocks
		"core": {"xrp"},                 // xrp.AssetKey, xrp.Exchange value types
	}

	forbidden := make(map[string]bool, len(simulator))
	for _, pkg := range simulator {
		forbidden["repro/internal/"+pkg] = true
	}
	for _, pkg := range measurement {
		dir := filepath.Join("internal", pkg)
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		found := make(map[string]string) // forbidden import -> first file importing it
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
				if forbidden[target] && found[target] == "" {
					found[target] = path
				}
			}
		}
		for _, sim := range allowed[pkg] {
			target := "repro/internal/" + sim
			if found[target] == "" {
				t.Errorf("internal/%s no longer imports internal/%s: delete the allowlist entry", pkg, sim)
			}
			delete(found, target)
		}
		targets := make([]string, 0, len(found))
		for target := range found {
			targets = append(targets, target)
		}
		sort.Strings(targets)
		for _, target := range targets {
			t.Errorf("internal/%s imports %s (%s): the measurement side must not link the simulator", pkg, target, found[target])
		}
	}
}
