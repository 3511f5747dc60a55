package repro

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPinnedTestsExist checks every `go test … -run 'PATTERN' PKGS` (and
// `-fuzz 'PATTERN'`) line of the CI workflow: each top-level `|`
// alternative of the pattern must match a Test, Benchmark or Fuzz function
// declared in the named packages. `go test -run` on a pattern that matches
// nothing passes with "no tests to run", so without this check a renamed
// test silently empties the race or -count step that pins it. An
// alternative that matches the empty name (`^$`, which runs nothing on
// purpose) is skipped. It reads only the workflow and the test files'
// declarations, so it needs nothing beyond the source tree.
func TestCIPinnedTestsExist(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	f, err := os.Open(workflow)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	checked := 0
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		_, cmd, ok := strings.Cut(sc.Text(), "go test ")
		if !ok {
			continue
		}
		var pkgs, patterns []string
		words := shellWords(cmd)
		for i, w := range words {
			switch {
			case strings.HasPrefix(w, "./"):
				pkgs = append(pkgs, w)
			case (w == "-run" || w == "-fuzz") && i+1 < len(words):
				patterns = append(patterns, words[i+1])
			}
		}
		if len(patterns) == 0 {
			continue
		}
		names, err := testFuncs(pkgs)
		if err != nil {
			t.Fatalf("%s:%d: %v", workflow, line, err)
		}
		for _, p := range patterns {
			// -run matches subtests level by level; the first level names
			// the top-level function.
			top, _, _ := cutTopLevel(p, '/')
			for _, alt := range splitTopLevel(top, '|') {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s:%d: pattern %q: %v", workflow, line, p, err)
					continue
				}
				if re.MatchString("") {
					continue
				}
				checked++
				if !anyMatch(re, names) {
					t.Errorf("%s:%d: %q matches no Test, Benchmark or Fuzz function in %s: the step runs nothing for it",
						workflow, line, alt, strings.Join(pkgs, " "))
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatalf("found no -run or -fuzz pattern in %s: the parse is broken", workflow)
	}
}

// shellWords splits a shell command into words, honouring single and
// double quotes, and stops at the first unquoted |, ; or &.
func shellWords(cmd string) []string {
	var (
		words  []string
		cur    strings.Builder
		quote  rune
		inWord bool
	)
	for _, r := range cmd {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == '|' || r == ';' || r == '&':
			if inWord {
				words = append(words, cur.String())
			}
			return words
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// splitTopLevel splits a regular expression at every sep outside
// parentheses, brackets and escapes.
func splitTopLevel(re string, sep byte) []string {
	var parts []string
	for {
		head, rest, ok := cutTopLevel(re, sep)
		parts = append(parts, head)
		if !ok {
			return parts
		}
		re = rest
	}
}

// cutTopLevel cuts re around its first sep outside parentheses, brackets
// and escapes.
func cutTopLevel(re string, sep byte) (before, after string, found bool) {
	depth, inClass := 0, false
	for i := 0; i < len(re); i++ {
		switch c := re[i]; {
		case c == '\\':
			i++
		case inClass:
			inClass = c != ']'
		case c == '[':
			inClass = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			return re[:i], re[i+1:], true
		}
	}
	return re, "", false
}

// testFuncs lists the Test, Benchmark and Fuzz functions declared in the
// test files of the packages go test would run for pkgs ("./dir" or
// "./dir/...").
func testFuncs(pkgs []string) ([]string, error) {
	var names []string
	collect := func(path string) error {
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Benchmark", "Fuzz"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
		return nil
	}
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "/...")
		dir = filepath.Clean(dir)
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && path != dir && (!recursive || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
				return filepath.SkipDir
			case strings.HasSuffix(path, "_test.go"):
				return collect(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return names, nil
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
