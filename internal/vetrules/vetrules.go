// Package vetrules holds the one source-level rule the repository checks
// about itself that neither an API shape nor a call-site list can carry:
// lockscope, the hold-time discipline of the shard and WAL mutexes
// (DESIGN.md §18). The rule is package-local, intra-procedural, and
// deliberately narrow: it encodes the exact shape the repository's own
// code uses (mutex fields named `mu`, `fooLocked` methods), trading
// generality for zero-configuration precision on this tree. Its only
// caller is this package's test, which type-checks internal/shard and
// internal/wal from source and fails on any finding — so the rule runs
// under `go test ./...` like every other invariant.
//
// # Suppressions
//
// A finding that is a documented, reviewed exception is silenced with a
// comment on the offending line or the line above it:
//
//	//lockscope:ignore <reason>
//
// The reason is mandatory — an ignore without one does not suppress, so
// every exception in the tree carries its justification next to the code.
package vetrules

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// finding is one post-suppression diagnostic.
type finding struct {
	pos token.Position
	msg string
}

// lineKey identifies one source line.
type lineKey struct {
	file string
	line int
}

// collectIgnores indexes //lockscope:ignore comments by line. A comment
// suppresses findings on its own line and on the line directly below it
// (the comment-above-the-statement idiom).
func collectIgnores(fset *token.FileSet, files []*ast.File) map[lineKey]bool {
	ig := make(map[lineKey]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				directive, reason, _ := strings.Cut(text, " ")
				if directive != "lockscope:ignore" || strings.TrimSpace(reason) == "" {
					// No reason: not a valid suppression. The finding
					// stands, which is the loud failure mode.
					continue
				}
				pos := fset.Position(c.Pos())
				ig[lineKey{pos.Filename, pos.Line}] = true
				ig[lineKey{pos.Filename, pos.Line + 1}] = true
			}
		}
	}
	return ig
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

// pkgPathIs reports whether t (possibly behind a pointer) is the named
// type typeName declared in the package whose import path is exactly path
// ("sync", "os").
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
