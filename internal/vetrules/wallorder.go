package vetrules

import (
	"go/ast"
	"go/constant"
	"go/types"

	"higgs/internal/vetrules/analysis"
)

// walApplyMethods are the shard-summary operations that admit data into
// the queryable structure.
var walApplyMethods = map[string]bool{
	"Insert":        true,
	"InsertShardAt": true,
	"ExpireAt":      true,
	"ExpireShardAt": true,
}

// WALOrder enforces the durability-before-visibility ordering of the
// ingest path: inside package ingest, a shard apply (Insert*/Expire*)
// may only happen downstream of the WAL append critical section — i.e.
// lexically inside the deliver callback passed to wal.Append or
// wal.AppendExpire. The WAL assigns the global sequence number and the
// deliver callback runs while the log mutex still serializes admissions;
// applying outside it can make an edge queryable that a crash would
// erase, or admit two batches in an order that disagrees with the log
// (DESIGN.md §12).
//
// Two shapes are exempt:
//   - an apply whose sequence argument is the constant 0 — by the shard
//     API contract seq 0 is an unattributed maintenance operation
//     (time-based expiry sweeps) that is deliberately not WAL-ordered;
//   - replay and retry paths that re-apply records already durable in
//     the log, which carry //higgsvet:ignore wallorder suppressions.
var WALOrder = &analysis.Analyzer{
	Name: "wallorder",
	Doc: "shard applies in package ingest must happen inside the deliver callback of wal.Append/AppendExpire\n\n" +
		"Flags Insert/InsertShardAt/ExpireAt/ExpireShardAt calls on shard types that are not lexically inside a func literal passed to a wal append; applies with a constant-0 sequence argument are exempt.",
	Run: runWALOrder,
}

func runWALOrder(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() != "ingest" {
		return nil, nil
	}
	info := pass.TypesInfo
	for _, f := range prodFiles(pass) {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if !walApplyMethods[name] || !typeFromPkg(recvType(info, call), "shard") {
				return true
			}
			if seqIsZeroConst(pass, call) {
				return true
			}
			if underWALAppend(pass, stack) {
				return true
			}
			pass.Reportf(call.Pos(),
				"shard apply %s outside the wal.Append/AppendExpire deliver callback: the edge becomes queryable without a durable, ordered WAL record (DESIGN.md §12)", name)
			return true
		})
	}
	return nil, nil
}

// underWALAppend reports whether the ancestor stack shows a func literal
// passed as an argument to an Append/AppendExpire call on a wal log.
func underWALAppend(pass *analysis.Pass, stack []ast.Node) bool {
	for i := len(stack) - 1; i > 0; i-- {
		lit, ok := stack[i].(*ast.FuncLit)
		if !ok {
			continue
		}
		outer, ok := stack[i-1].(*ast.CallExpr)
		if !ok {
			continue
		}
		for _, arg := range outer.Args {
			if ast.Unparen(arg) != lit {
				continue
			}
			switch calleeName(outer) {
			case "Append", "AppendExpire":
				if isWALLog(pass.Pkg, recvType(pass.TypesInfo, outer)) {
					return true
				}
			}
		}
	}
	return false
}

// isWALLog reports whether t is a type of package wal, or an interface
// that the analyzed package's imported *wal.Log satisfies.
func isWALLog(pkg *types.Package, t types.Type) bool {
	if t == nil {
		return false
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return typeFromPkg(t, "wal")
	}
	for _, imp := range pkg.Imports() {
		if log := imp.Scope().Lookup("Log"); imp.Name() == "wal" && log != nil {
			return types.Implements(types.NewPointer(log.Type()), iface)
		}
	}
	return false
}

// seqIsZeroConst reports whether the call's final argument — the sequence
// number in every walApplyMethods signature — is the constant 0.
func seqIsZeroConst(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[len(call.Args)-1]]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return ok && v == 0
}

// typeFromPkg reports whether t (behind pointers) is a named type whose
// defining package has the given name — name, not path, so fixture
// packages under testdata can stand in for the real ones.
func typeFromPkg(t types.Type, pkgName string) bool {
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
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Name() == pkgName
}
