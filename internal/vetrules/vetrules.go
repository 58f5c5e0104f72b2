// Package vetrules holds higgsvet's go/analysis suite: mechanical
// enforcement of the concurrency and API invariants that DESIGN.md §12–§17
// state in prose and that -race tests can only probabilistically witness
// (DESIGN.md §18). Each analyzer is package-local, intra-procedural, and
// deliberately narrow: it encodes the exact shape the repository's own
// code uses (named `mu` mutex fields, the wal.Log deliver callback),
// trading generality for zero-configuration precision on this tree.
//
// # Suppressions
//
// A finding that is a documented, reviewed exception is silenced with a
// machine-readable comment on the offending line or the line above it:
//
//	//higgsvet:ignore <analyzer> <reason>
//
// The reason is mandatory — an ignore without one does not suppress, so
// every exception in the tree carries its justification next to the code.
// Package poolput additionally honors a function-level ownership marker,
// //higgsvet:pool-ownership <reason> (see poolput.go).
package vetrules

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"higgs/internal/vetrules/analysis"
)

// All returns the full higgsvet suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		LockScope,
		PoolPut,
	}
}

// Finding is one post-suppression diagnostic, tagged with the analyzer
// that produced it.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// RunPackage runs every analyzer in All over one typed package and returns
// the findings that survive //higgsvet:ignore filtering, in source order.
// It is the single entry point the vettool driver and the fixture test
// harness share, so suppression semantics cannot diverge between them.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Finding, error) {
	return RunAnalyzers(fset, files, pkg, info, All())
}

// RunAnalyzers is RunPackage restricted to an explicit analyzer list; the
// fixture harness uses it to exercise one analyzer at a time.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*analysis.Analyzer) ([]Finding, error) {
	ig := collectIgnores(fset, files)
	var out []Finding
	for _, a := range analyzers {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			return nil, err
		}
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			if ig.suppressed(a.Name, pos) {
				continue
			}
			out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
	}
	return out, nil
}

// ignoreSet indexes //higgsvet:ignore comments by (file, line, analyzer).
// A comment suppresses findings on its own line and on the line directly
// below it (the comment-above-the-statement idiom).
type ignoreSet map[string]map[int]map[string]bool

const ignorePrefix = "higgsvet:ignore"

func collectIgnores(fset *token.FileSet, files []*ast.File) ignoreSet {
	ig := make(ignoreSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				name, reason, _ := strings.Cut(rest, " ")
				if name == "" || strings.TrimSpace(reason) == "" {
					// No analyzer or no reason: not a valid suppression.
					// The finding stands, which is the loud failure mode.
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := ig[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					ig[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = make(map[string]bool)
					}
					byLine[line][name] = true
				}
			}
		}
	}
	return ig
}

func (ig ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	byLine := ig[pos.Filename]
	if byLine == nil {
		return false
	}
	return byLine[pos.Line][analyzer]
}

// isTestFile reports whether f was parsed from a _test.go file. The suite
// enforces production invariants; tests intentionally reach around them
// (locking slots directly, writing raw HTTP errors into recorders).
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// prodFiles returns the pass's non-test files.
func prodFiles(pass *analysis.Pass) []*ast.File {
	var out []*ast.File
	for _, f := range pass.Files {
		if !isTestFile(pass.Fset, f) {
			out = append(out, f)
		}
	}
	return out
}

// chainString renders the selector/index chain of an expression —
// "sl.mu", "p.gpool", "s.slots[i].mu" — or "" if the expression is not a
// chain of identifiers, field selections, and index operations. Two equal
// renderings within one function body are treated as the same lvalue;
// that is a heuristic (i may differ between renderings of s.slots[i]),
// but it matches how the repository writes lock sections: the guarded
// slot is always bound to a single local first.
func chainString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := chainString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.IndexExpr:
		base := chainString(e.X)
		idx := chainString(e.Index)
		if base == "" {
			return ""
		}
		if idx == "" {
			idx = "?"
		}
		return base + "[" + idx + "]"
	case *ast.ParenExpr:
		return chainString(e.X)
	case *ast.BasicLit:
		return e.Value
	}
	return ""
}

// pkgPathIs reports whether t's defining package import path is path
// exactly ("sync", "net/http"); used where fixtures shadow the real
// standard-library path, so path matching stays precise.
func pkgPathIs(t types.Type, path, typeName string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == typeName
}

// calleePkgPath returns the import path of the package a call's callee
// function or method is declared in ("" when unresolvable — builtins,
// function-valued expressions, type conversions).
func calleePkgPath(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Func); ok && obj.Pkg() != nil {
			return obj.Pkg().Path()
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil {
			return obj.Pkg().Path()
		}
	}
	return ""
}

// calleeName returns the bare name of a call's callee ("Error", "Sleep",
// "WriteHeader"), or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// recvType returns the type of a method call's receiver expression, or
// nil for non-selector calls.
func recvType(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return info.TypeOf(sel.X)
}

// funcBodies yields every function body in f — declarations and literals —
// each paired with its name (literals get the enclosing declaration's name
// plus ".func"). Nested literals are visited as independent scopes; lock
// sections never extend into a nested literal, because the literal may run
// on another goroutine or after the section ends.
type funcBody struct {
	name string
	decl *ast.FuncDecl // nil for literals
	body *ast.BlockStmt
}

func funcBodies(f *ast.File) []funcBody {
	var out []funcBody
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, funcBody{name: fd.Name.Name, decl: fd, body: fd.Body})
		name := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, funcBody{name: name + ".func", body: lit.Body})
			}
			return true
		})
	}
	return out
}

// ownStmts collects the statements and expressions that belong to body's
// own scope — excluding the interior of any nested function literal — in
// source order. visit is called for every node in that scope.
func ownScope(body *ast.BlockStmt, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}
