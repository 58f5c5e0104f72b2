package wal

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

// allowed holds the reviewed exceptions to "nothing under l.mu blocks",
// keyed "<section>: <operation>", each with its reason.
var allowed = map[string]string{
	"rotateLocked: l.f.Sync()": "rotation must seal the old segment durably before the next segment takes appends; " +
		"it happens once per SegmentBytes, amortized far below the group-commit fsync cadence",
}

// lockSites returns, sorted, "<declaration>: <method>" for every
// `<x>.mu.Lock()` and `<x>.mu.RLock()` call in files.
func lockSites(files ...*ast.File) []string {
	var sites []string
	for _, file := range files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if lock, ok := call.Fun.(*ast.SelectorExpr); ok && (lock.Sel.Name == "Lock" || lock.Sel.Name == "RLock") {
						if mu, ok := lock.X.(*ast.SelectorExpr); ok && mu.Sel.Name == "mu" {
							sites = append(sites, decl.Name.Name+": "+lock.Sel.Name)
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

// lockProblems scans every section of files — each function literal passed
// to locked and each *Locked method body — for blocking operations not in
// allowed, and every file holding a section for blocking imports. It also
// reports a locked argument that is not a literal (the scan could not see
// its body), a *Locked call outside every section, and an allowed entry
// that matches nothing.
func lockProblems(fset *token.FileSet, files []*ast.File) []string {
	type section struct {
		name string
		file *ast.File
		body *ast.BlockStmt
	}
	var secs []section
	var problems []string
	var lockedCalls []*ast.CallExpr
	for _, file := range files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			if decl.Recv != nil && strings.HasSuffix(decl.Name.Name, "Locked") {
				secs = append(secs, section{decl.Name.Name, file, decl.Body})
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				switch {
				case !ok:
				case sel.Sel.Name == "locked" && len(call.Args) == 1:
					if lit, ok := call.Args[0].(*ast.FuncLit); ok {
						secs = append(secs, section{decl.Name.Name + "'s locked closure", file, lit.Body})
					} else {
						problems = append(problems, at(fset, call.Pos())+": locked takes a function literal, so the scan sees its section")
					}
				case strings.HasSuffix(sel.Sel.Name, "Locked"):
					lockedCalls = append(lockedCalls, call)
				}
				return true
			})
		}
	}
	chans := chanNames(files)
	used := make(map[string]bool)
	scanned := make(map[*ast.File]bool)
	for _, s := range secs {
		if !scanned[s.file] {
			scanned[s.file] = true
			for _, imp := range blockingImports(fset, s.file) {
				problems = append(problems, imp+", in a file holding l.mu sections")
			}
		}
		for _, op := range blockingOps(fset, s.body, chans) {
			_, what, _ := strings.Cut(op, ": ")
			if key := s.name + ": " + what; allowed[key] != "" {
				used[key] = true
				continue
			}
			problems = append(problems, op+" in "+s.name+", under l.mu: nothing may block while it is held (DESIGN.md §18)")
		}
	}
	for _, call := range lockedCalls {
		if !slices.ContainsFunc(secs, func(s section) bool { return s.body.Pos() <= call.Pos() && call.End() <= s.body.End() }) {
			problems = append(problems, at(fset, call.Pos())+": "+types.ExprString(call.Fun)+" called outside a locked section")
		}
	}
	for key := range allowed {
		if !used[key] {
			problems = append(problems, "allowed entry matches nothing: "+key)
		}
	}
	sort.Strings(problems)
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
// internal/shard's lock_test.go holds the same check.
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
// internal/shard's lock_test.go holds the same scan.
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

// TestLockedSections holds the log mutex's hold-time rule (DESIGN.md §18).
// Every durable admission serializes on l.mu, so one fsync or channel wait
// under it stalls every appender — the failure group commit exists to
// avoid. The rule is checkable by syntax alone because locked is the only
// place l.mu is taken: a section is a whole function body, either a
// literal handed to locked or a *Locked method, which runs only inside one.
func TestLockedSections(t *testing.T) {
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
	if got, want := lockSites(files...), []string{"locked: Lock"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("mu lock sites in package wal = %q, want %q: lock l.mu only through locked", got, want)
	}
	if !t.Run("package", func(t *testing.T) {
		for _, p := range lockProblems(fset, files) {
			t.Error(p)
		}
	}) {
		return
	}

	// The checks must see an added lock site, both kinds of section, a
	// blocking import, a section they cannot read and a *Locked call
	// outside every section.
	t.Run("sneak", func(t *testing.T) {
		sneak, err := parser.ParseFile(fset, "sneak.go", `package wal
import "log"
func (w *Log) Sneak() {
	w.mu.Lock()
	w.locked(func() { w.dirty <- struct{}{} })
	w.locked(w.sneakLocked)
	w.sneakLocked()
}
func (w *Log) sneakLocked() { for range w.stop {} }`, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := lockSites(append(files, sneak)...), []string{"Sneak: Lock", "locked: Lock"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("checker missed an added lock site: got %q, want %q", got, want)
		}
		want := []string{
			`sneak.go:2: import "log", in a file holding l.mu sections`,
			"sneak.go:5: channel send in Sneak's locked closure, under l.mu: nothing may block while it is held (DESIGN.md §18)",
			"sneak.go:6: locked takes a function literal, so the scan sees its section",
			"sneak.go:7: w.sneakLocked called outside a locked section",
			"sneak.go:9: range over channel w.stop in sneakLocked, under l.mu: nothing may block while it is held (DESIGN.md §18)",
		}
		if got := lockProblems(fset, append(files, sneak)); !reflect.DeepEqual(got, want) {
			t.Fatalf("lock checks over the sneak file = %q, want %q", got, want)
		}
	})
}
