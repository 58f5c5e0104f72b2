package shard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// eachLock calls fn for every `<x>.mu.Lock()` and `<x>.mu.RLock()` call in
// files, with the file, the enclosing declaration's name, the innermost
// function body holding the call (a literal's, when the call sits in one)
// and the method.
func eachLock(files []*ast.File, fn func(file *ast.File, decl string, body *ast.BlockStmt, method string)) {
	for _, file := range files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			var visit func(body *ast.BlockStmt)
			visit = func(body *ast.BlockStmt) {
				ast.Inspect(body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncLit:
						visit(n.Body)
						return false
					case *ast.CallExpr:
						lock, ok := n.Fun.(*ast.SelectorExpr)
						if !ok || (lock.Sel.Name != "Lock" && lock.Sel.Name != "RLock") {
							return true
						}
						if mu, ok := lock.X.(*ast.SelectorExpr); ok && mu.Sel.Name == "mu" {
							fn(file, decl.Name.Name, body, lock.Sel.Name)
						}
					}
					return true
				})
			}
			visit(decl.Body)
		}
	}
}

// lockSites returns, sorted, "<declaration>: <method>" for every mu lock
// call in files.
func lockSites(files ...*ast.File) []string {
	var sites []string
	eachLock(files, func(_ *ast.File, decl string, _ *ast.BlockStmt, method string) {
		sites = append(sites, decl+": "+method)
	})
	sort.Strings(sites)
	return sites
}

// lockProblems scans the innermost function around every mu lock call in
// files for blocking operations, and every file holding one for blocking
// imports.
func lockProblems(fset *token.FileSet, files []*ast.File) []string {
	var problems []string
	chans := chanNames(files)
	scanned := make(map[*ast.File]bool)
	eachLock(files, func(file *ast.File, decl string, body *ast.BlockStmt, _ string) {
		if !scanned[file] {
			scanned[file] = true
			for _, imp := range blockingImports(fset, file) {
				problems = append(problems, imp+", in a file holding slot lock sections")
			}
		}
		for _, op := range blockingOps(fset, body, chans) {
			problems = append(problems, op+" in "+decl+", under a slot's mu: nothing may block while it is held (DESIGN.md §18)")
		}
	})
	return problems
}

// at renders pos as "<file>:<line>".
func at(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}

// blockingImports returns, as "<file>:<line>: import <path>", every import
// of file that a file holding a lock section may not have: a syntactic
// scan cannot tell calls into these packages, or method calls on their
// types, from anyone else's, so the whole file stays clear of them.
// internal/wal's lock_test.go holds the same check.
func blockingImports(fset *token.FileSet, file *ast.File) []string {
	var found []string
	for _, imp := range file.Imports {
		switch path, _ := strconv.Unquote(imp.Path.Value); path {
		case "net", "net/http", "os/exec", "database/sql", "log":
			found = append(found, at(fset, imp.Pos())+": import "+imp.Path.Value)
		}
	}
	return found
}

// blockingOps returns, as "<file>:<line>: <what>", every operation in body
// that may block: a channel send or receive, a select, a range over a
// channel named in chans, a time.Sleep, any .Sync() or .Wait() call.
// internal/wal's lock_test.go holds the same scan.
func blockingOps(fset *token.FileSet, body ast.Node, chans map[string]bool) []string {
	var ops []string
	report := func(pos token.Pos, what string) { ops = append(ops, at(fset, pos)+": "+what) }
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			report(n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			report(n.Pos(), "select")
		case *ast.RangeStmt:
			if chans[lastName(n.X)] {
				report(n.Pos(), "range over channel "+types.ExprString(n.X))
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if name := types.ExprString(sel); name == "time.Sleep" || sel.Sel.Name == "Sync" || sel.Sel.Name == "Wait" {
					report(n.Pos(), name+"()")
				}
			}
		}
		return true
	})
	return ops
}

// chanNames returns the name of every channel-typed field, parameter and
// variable declared in files.
func chanNames(files []*ast.File) map[string]bool {
	names := make(map[string]bool)
	isChan := func(e ast.Expr) bool {
		if call, ok := e.(*ast.CallExpr); ok && types.ExprString(call.Fun) == "make" {
			e = call.Args[0]
		}
		_, ok := e.(*ast.ChanType)
		return ok
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			var idents []*ast.Ident
			switch n := n.(type) {
			case *ast.Field:
				if isChan(n.Type) {
					idents = n.Names
				}
			case *ast.ValueSpec:
				if (n.Type != nil && isChan(n.Type)) || (len(n.Values) > 0 && isChan(n.Values[0])) {
					idents = n.Names
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && len(n.Lhs) == len(n.Rhs) && isChan(rhs) {
						idents = append(idents, id)
					}
				}
			}
			for _, id := range idents {
				names[id.Name] = true
			}
			return true
		})
	}
	return names
}

// lastName is the final identifier of a name or field chain ("dirty" for
// l.dirty).
func lastName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
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

// TestWriteLockSites holds two rules about a slot's mutex.
//
// Where it is taken: the write lock in mutate — which bumps the version and
// notifies the observer for every answer-changing op — and otherwise only
// by the two answer-neutral seal sites; the read lock in three readers. A
// new mu.Lock() anywhere else is a write path that can skip the version
// bump; route it through mutate instead of extending this list.
//
// What runs under it: nothing that blocks (DESIGN.md §18). Every query
// fans out behind these locks, so one fsync, sleep or channel wait inside
// a section stalls every reader of the shard. No section unlocks before
// its function ends, so the scan covers the whole innermost function
// around each lock call.
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
	want := []string{"Items: RLock", "ProbeShard: RLock", "ShardSeq: RLock", "Stats: Lock", "WriteTo: Lock", "mutate: Lock"}
	if got := lockSites(files...); !reflect.DeepEqual(got, want) {
		t.Fatalf("mu lock sites in package shard = %q, want %q", got, want)
	}
	t.Run("package", func(t *testing.T) {
		for _, p := range lockProblems(fset, files) {
			t.Error(p)
		}
	})

	// The checks must see an added lock site and everything that blocks.
	t.Run("sneak", func(t *testing.T) {
		sneak, err := parser.ParseFile(fset, "sneak.go", `package shard
import "log"
func (s *Summary) Sneak(wg *sync.WaitGroup, ch chan int) {
	s.slots[0].mu.Lock()
	ch <- <-ch
	select {}
	for range ch {}
	time.Sleep(1)
	s.f.Sync()
	wg.Wait()
	log.Print()
}`, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := append(slices.Clone(want), "Sneak: Lock")
		sort.Strings(want)
		if got := lockSites(append(files, sneak)...); !reflect.DeepEqual(got, want) {
			t.Fatalf("checker missed an added lock site: got %q, want %q", got, want)
		}
		want = []string{`sneak.go:2: import "log", in a file holding slot lock sections`}
		for _, op := range []string{"5: channel send", "5: channel receive", "6: select", "7: range over channel ch", "8: time.Sleep()", "9: s.f.Sync()", "10: wg.Wait()"} {
			want = append(want, "sneak.go:"+op+" in Sneak, under a slot's mu: nothing may block while it is held (DESIGN.md §18)")
		}
		if got := lockProblems(fset, []*ast.File{sneak}); !reflect.DeepEqual(got, want) {
			t.Fatalf("lock checks over the sneak file = %q, want %q", got, want)
		}
	})

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
	sneak, err := parser.ParseFile(fset, "sneak.go", `package shard
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
