package vetrules

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// One source importer for the whole test binary: every package below pulls
// in sync and os, and each is type-checked once.
var (
	fset        = token.NewFileSet()
	srcImporter = importer.ForCompiler(fset, "source", nil)
)

// load parses the non-test sources of the package in dir and type-checks
// them from source — dependencies included, the real standard library
// among them — so the test needs nothing but the go tree it already runs
// in.
func load(t *testing.T, dir string) ([]*ast.File, *types.Info) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: srcImporter}
	if _, err := conf.Check(files[0].Name.Name, fset, files, info); err != nil {
		t.Fatalf("type-checking %s: %v", dir, err)
	}
	return files, info
}

// TestLockScopeTree runs the rule over the two packages it exists for and
// fails on any finding. It also fails when the rule saw less than the
// source shows: lockscope keys on mutex fields named mu and on the *Locked
// suffix, so a rename would otherwise switch it off without a sound.
func TestLockScopeTree(t *testing.T) {
	for _, pkg := range []struct {
		dir        string
		wantLocked bool // the package uses the *Locked convention today
	}{
		{"../shard", false},
		{"../wal", true}, // rotateLocked carries the tree's one reasoned exception
	} {
		t.Run(filepath.Base(pkg.dir), func(t *testing.T) {
			files, info := load(t, pkg.dir)
			res := lockScope(fset, files, info)
			for _, fd := range res.findings {
				t.Errorf("%s: %s", fd.pos, fd.msg)
			}
			t.Logf("%d sections, %d *Locked bodies", res.sections, res.lockedBodies)
			sites, locked := 0, 0
			for _, f := range files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncDecl:
						if n.Recv != nil && n.Body != nil && strings.HasSuffix(n.Name.Name, "Locked") {
							locked++
						}
					case *ast.CallExpr:
						if strings.HasSuffix(chainString(n.Fun), ".mu.Lock") || strings.HasSuffix(chainString(n.Fun), ".mu.RLock") {
							sites++
						}
					}
					return true
				})
			}
			switch {
			case sites == 0:
				t.Errorf("no mu.Lock()/mu.RLock() call site in %s: lockscope keys on mutex fields named mu, so here it checks nothing", pkg.dir)
			case res.sections != sites:
				t.Errorf("lockscope tracked %d sections, the source has %d mu.Lock()/mu.RLock() sites", res.sections, sites)
			}
			if res.lockedBodies != locked || (pkg.wantLocked && locked == 0) {
				t.Errorf("lockscope treated %d *Locked bodies as held, the source has %d (none expected: %v)", res.lockedBodies, locked, !pkg.wantLocked)
			}
		})
	}
}

// The fixtures under testdata are deliberately red: one package per shape,
// each line that must be reported carrying its expectation as a comment,
//
//	sl.ch <- 1 // want "channel send"
//
// Each double-quoted string after `want` is a regexp that must match the
// message of exactly one finding on that line; findings on lines with no
// matching expectation, and expectations no finding matches, both fail.
// Suppression comments are honored, so the fixtures pin those semantics too.

func TestLockScopeShard(t *testing.T) { runFixture(t, "testdata/shard") }

func TestLockScopeWAL(t *testing.T) { runFixture(t, "testdata/wal") }

func runFixture(t *testing.T, dir string) {
	t.Helper()
	files, info := load(t, dir)
	findings := lockScope(fset, files, info).findings

	wants := make(map[lineKey][]*wantExpr)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				k := lineKey{pos.Filename, pos.Line}
				wants[k] = append(wants[k], parseWants(t, pos, c.Text)...)
			}
		}
	}
	for _, fd := range findings {
		matched := false
		for _, w := range wants[lineKey{fd.pos.Filename, fd.pos.Line}] {
			if !w.matched && w.re.MatchString(fd.msg) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s", fd.pos, fd.msg)
		}
	}
	var missing []string
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				missing = append(missing, fmt.Sprintf("%s:%d: no finding matched %q", filepath.Base(k.file), k.line, w.re))
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Error(m)
	}
}

type wantExpr struct {
	re      *regexp.Regexp
	matched bool
}

// parseWants extracts the `// want "re" "re"...` expectations from one
// comment. The expectations bind to the comment's own line.
func parseWants(t *testing.T, pos token.Position, comment string) []*wantExpr {
	t.Helper()
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(comment, "//")), "want ")
	if !ok {
		return nil
	}
	var out []*wantExpr
	for rest = strings.TrimSpace(rest); rest != ""; {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			t.Fatalf("%s: malformed want comment near %q (expectations are double-quoted regexps): %v", pos, rest, err)
		}
		lit, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s: malformed want comment near %q: %v", pos, rest, err)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, lit, err)
		}
		out = append(out, &wantExpr{re: re})
		rest = strings.TrimSpace(rest[len(q):])
	}
	return out
}
