package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
// ones. Within the list, core keeps to aggregation and the shard codec: it
// never imports blobstore, because where a run's shards live in a store is
// coord's business. And collect imports neither stats nor any compress
// package: a stream moves bytes and never deflates them — whoever keeps or
// sizes a payload does that. It reads only the import clauses of each
// package's non-test files, so it needs nothing beyond the source tree.
//
// It also pins one diagnostic channel, log/slog: no non-test file under
// internal/ or the five measurement commands mentions os.Stderr except as
// the writer of slog.NewTextHandler (and cmd/coordinate's handing it to
// run, which builds its logger over it and shares it with the worker
// subprocesses), and none declares a field or parameter named log or Log
// of type io.Writer. internal/testkit is exempt: its Main reports leaked
// goroutines from TestMain, where there is no logger.
//
// And it pins internal/testkit as test-only: no non-test file of the module
// imports it, and it imports nothing from the module. cmd/chainsim serves
// the simulated histories and never imports internal/pipeline, the
// reproduction that crawls them.
func TestLayering(t *testing.T) {
	measurement := []string{
		"internal/wire", "internal/collect", "internal/archive", "internal/blobstore",
		"internal/retry", "internal/stats", "internal/core", "internal/coord",
		"internal/serve", "internal/cli", "internal/chain", "internal/wsrpc",
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
				if dir == "internal/core" && target == "repro/internal/blobstore" {
					t.Errorf("%s imports %s: shard blob I/O belongs to internal/coord", path, target)
				}
				if dir == "internal/collect" && (target == "repro/internal/stats" || target == "compress" || strings.HasPrefix(target, "compress/")) {
					t.Errorf("%s imports %s: a stream moves bytes, it never deflates them", path, target)
				}
			}
		}
	}

	const testkit = "internal/testkit"
	spine := []string{"internal", "cmd/crawl", "cmd/coordinate", "cmd/merge", "cmd/serve", "cmd/report"}
	for _, root := range spine {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			if filepath.Dir(path) != testkit {
				checkOneLogger(t, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range parsed.Imports {
			target, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if target == "repro/"+testkit {
				t.Errorf("%s imports %s: only _test.go files may", path, target)
			}
			if filepath.Dir(path) == filepath.Join("cmd", "chainsim") && target == "repro/internal/pipeline" {
				t.Errorf("%s imports %s: the simulator's server does not link the reproduction", path, target)
			}
			if filepath.Dir(path) == testkit && strings.HasPrefix(target, "repro/") {
				t.Errorf("%s imports %s: testkit imports nothing from the module", path, target)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkOneLogger fails the test where the file at path writes diagnostics
// around the logger: os.Stderr anywhere but as the writer of
// slog.NewTextHandler (or of cmd/coordinate's run), or a log/Log field or
// parameter typed io.Writer.
func checkOneLogger(t *testing.T, path string) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	is := func(e ast.Expr, pkg, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == pkg
	}
	allowed := make(map[ast.Expr]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn, ok := n.Fun.(*ast.Ident)
			if is(n.Fun, "slog", "NewTextHandler") || ok && fn.Name == "run" && filepath.Dir(path) == filepath.Join("cmd", "coordinate") {
				for _, arg := range n.Args {
					allowed[arg] = true
				}
			}
		case *ast.SelectorExpr:
			if is(n, "os", "Stderr") && !allowed[n] {
				t.Errorf("%s: os.Stderr outside slog.NewTextHandler: diagnostics go through the logger", fset.Position(n.Pos()))
			}
		case *ast.Field:
			for _, name := range n.Names {
				if (name.Name == "log" || name.Name == "Log") && is(n.Type, "io", "Writer") {
					t.Errorf("%s: %s io.Writer: a logger is a *slog.Logger", fset.Position(name.Pos()), name.Name)
				}
			}
		}
		return true
	})
}
