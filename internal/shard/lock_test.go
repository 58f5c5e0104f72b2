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

// tokenWriteSites returns, sorted, "<function>: <field>.<method>" for every
// write to a slot's invalidation tokens — a Store, Add, Swap or
// CompareAndSwap on a field named ver, frontier or rewrites — plus
// "<function>: slot{}" for every place a slot is built.
func tokenWriteSites(files ...*ast.File) []string {
	var sites []string
	for _, file := range files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if id, ok := n.Type.(*ast.Ident); ok && id.Name == "slot" {
						sites = append(sites, fn.Name.Name+": slot{}")
					}
				case *ast.CallExpr:
					call, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					field, ok := call.X.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					switch field.Sel.Name {
					case "ver", "frontier", "rewrites":
						switch call.Sel.Name {
						case "Store", "Add", "Swap", "CompareAndSwap":
							sites = append(sites, fn.Name.Name+": "+field.Sel.Name+"."+call.Sel.Name)
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

	// What the read cache fences on (DESIGN.md §16) is written under that
	// lock and nowhere else: version, append frontier and rewrite count in
	// mutate, and the frontier once more where a slot is built — newSlot,
	// the only constructor — so a decoded snapshot starts at its restored
	// lastT. A frontier stored anywhere else can run ahead of the contents
	// and freeze an answer an insert still changes.
	want = []string{"mutate: frontier.Store", "mutate: rewrites.Add", "mutate: ver.Add", "newSlot: frontier.Store", "newSlot: slot{}"}
	if got := tokenWriteSites(files...); !reflect.DeepEqual(got, want) {
		t.Fatalf("writes to ver / frontier / rewrites in package shard = %q, want %q", got, want)
	}
	sneak, err = parser.ParseFile(fset, "sneak.go", `package shard
func (s *Summary) Sneak() *slot { s.slots[0].frontier.Store(1); return &slot{} }`, 0)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, "Sneak: frontier.Store", "Sneak: slot{}")
	sort.Strings(want)
	if got := tokenWriteSites(append(files, sneak)...); !reflect.DeepEqual(got, want) {
		t.Fatalf("checker missed an added token write: got %q, want %q", got, want)
	}
}
