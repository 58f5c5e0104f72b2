package shard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// writeLockSites returns, sorted, the name of the enclosing function of
// every `<x>.mu.Lock()` call in the parsed files.
func writeLockSites(files ...*ast.File) []string {
	var sites []string
	for _, file := range files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if lock, ok := call.Fun.(*ast.SelectorExpr); ok && lock.Sel.Name == "Lock" {
						if mu, ok := lock.X.(*ast.SelectorExpr); ok && mu.Sel.Name == "mu" {
							sites = append(sites, fn.Name.Name)
						}
					}
				}
				return true
			})
		}
	}
	sort.Strings(sites)
	return sites
}

// TestWriteLockSites holds the rule the deleted lockversion analyzer used
// to police section by section: a slot's write lock is taken in mutate —
// which bumps the version and notifies the observer for every
// answer-changing op — and otherwise only by the two answer-neutral seal
// sites. A new mu.Lock() anywhere else is a write path that can skip the
// version bump; route it through mutate instead of extending this list.
func TestWriteLockSites(t *testing.T) {
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	want := []string{"Stats", "WriteTo", "mutate"}
	if got := writeLockSites(files...); !reflect.DeepEqual(got, want) {
		t.Fatalf("mu.Lock() sites in package shard = %v, want %v", got, want)
	}

	// The check must see a second answer-changing lock section.
	sneak, err := parser.ParseFile(fset, "sneak.go", `package shard
func (s *Summary) Sneak() { s.slots[0].mu.Lock(); s.slots[0].sum.Insert(e) }`, 0)
	if err != nil {
		t.Fatal(err)
	}
	want = []string{"Sneak", "Stats", "WriteTo", "mutate"}
	if got := writeLockSites(append(files, sneak)...); !reflect.DeepEqual(got, want) {
		t.Fatalf("checker missed an added lock site: got %v, want %v", got, want)
	}
}
