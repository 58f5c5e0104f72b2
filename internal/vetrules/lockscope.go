package vetrules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// lockScope enforces the hold-time discipline of the two hot mutexes the
// whole system serializes on — a shard slot's RWMutex (every query fans
// out behind it) and the WAL log mutex (every durable admission runs
// under it): no blocking or I/O call may execute while one is held.
// A single fsync or network round trip inside such a section stalls every
// reader of the shard (or every appender of the log) for the duration,
// which is exactly the failure mode the group-commit design exists to
// avoid (DESIGN.md §12).
//
// Forbidden while a tracked mutex is held, intra-procedurally:
//   - (*os.File).Sync — fsync belongs to the group-commit syncer, outside
//     the log mutex (wal.syncNow's contract)
//   - any call into net, net/http, os/exec, or database/sql
//   - log.* (the standard logger may block on its output)
//   - time.Sleep
//   - channel send, channel receive, select, range-over-channel
//   - sync.WaitGroup.Wait and sync.Cond.Wait
//
// Sections are Lock/RLock..Unlock/RUnlock spans over fields named mu. The
// check also treats the body of a `fooLocked` method — the repository's
// "caller holds mu" convention — as a held section. Documented exceptions
// (segment rotation syncs the sealed file under the log mutex by design)
// carry //lockscope:ignore suppressions.
//
// files are one package's non-test sources, info their type information.
func lockScope(fset *token.FileSet, files []*ast.File, info *types.Info) result {
	var res result
	ig := collectIgnores(fset, files)
	for _, f := range files {
		for _, fb := range funcBodies(f) {
			secs := lockSections(info, fb.body)
			res.sections += len(secs)
			if s, ok := lockedBody(info, fb); ok {
				secs = append(secs, s)
				res.lockedBodies++
			}
			if len(secs) == 0 {
				continue
			}
			ownScope(fb.body, func(n ast.Node) bool {
				pos, what := blockingOp(info, n)
				if what == "" {
					return true
				}
				for i := range secs {
					if !secs[i].contains(pos) {
						continue
					}
					if p := fset.Position(pos); !ig[lineKey{p.Filename, p.Line}] {
						res.findings = append(res.findings, finding{p, fmt.Sprintf(
							"%s while holding %s: blocking inside this critical section stalls every goroutine serialized on it (DESIGN.md §18)",
							what, secs[i].chain)})
					}
					// A reported select already covers the sends and
					// receives in its comm clauses; don't re-report them.
					if _, ok := n.(*ast.SelectStmt); ok {
						return false
					}
					break // one report per op, even under nested sections
				}
				return true
			})
		}
	}
	return res
}

// result is what one package yielded: the findings that survive
// suppression, and how much the rule actually looked at — the test holds
// both counts to what the source shows, because a rule that tracks nothing
// passes everything.
type result struct {
	findings     []finding
	sections     int // Lock/RLock spans tracked
	lockedBodies int // *Locked method bodies treated as held
}

// blockingCallPkgs are import paths any call into which is considered
// blocking I/O.
var blockingCallPkgs = map[string]bool{
	"net":          true,
	"net/http":     true,
	"os/exec":      true,
	"database/sql": true,
	"log":          true,
}

// blockingOp classifies a node as a forbidden blocking operation,
// returning its position and a human description ("" when benign).
func blockingOp(info *types.Info, n ast.Node) (token.Pos, string) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return n.Arrow, "channel send"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return n.OpPos, "channel receive"
		}
	case *ast.SelectStmt:
		return n.Select, "select"
	case *ast.RangeStmt:
		if t := info.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return n.For, "range over channel"
			}
		}
	case *ast.CallExpr:
		name := calleeName(n)
		if path := calleePkgPath(info, n); blockingCallPkgs[path] {
			return n.Pos(), "call into package " + path
		} else if path == "time" && name == "Sleep" {
			return n.Pos(), "time.Sleep"
		}
		rt := recvType(info, n)
		switch {
		case name == "Sync" && pkgPathIs(rt, "os", "File"):
			return n.Pos(), "(*os.File).Sync (fsync)"
		case name == "Wait" && (pkgPathIs(rt, "sync", "WaitGroup") || pkgPathIs(rt, "sync", "Cond")):
			return n.Pos(), "sync." + typeBase(rt) + ".Wait"
		case rt != nil && blockingRecvPkg(rt):
			return n.Pos(), "method call on " + types.TypeString(rt, nil)
		}
	}
	return token.NoPos, ""
}

// blockingRecvPkg reports whether a method receiver's type is declared in
// one of the blocking packages (net.Conn, http.Client, ...).
func blockingRecvPkg(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && blockingCallPkgs[pkg.Path()]
}

// typeBase returns the bare name of a (possibly pointered) named type.
func typeBase(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
