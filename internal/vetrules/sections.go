package vetrules

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// span is a half-open source range.
type span struct{ start, end token.Pos }

// section is one mutex critical section within a single function scope:
// the source span between a Lock/RLock call on a tracked mutex chain and
// the matching Unlock/RUnlock (or the end of the function, for deferred
// unlocks and unmatched locks). holes carve out early-exit tails — an
// `if cond { mu.Unlock(); ...; return }` block releases the lock for the
// rest of that block only, while the fallthrough path stays locked.
type section struct {
	chain string // rendering of the mutex expression, e.g. "sl.mu"
	write bool   // Lock/Unlock vs RLock/RUnlock
	span
	holes []span
}

func (s *section) contains(pos token.Pos) bool {
	if pos <= s.start || pos >= s.end {
		return false
	}
	for _, h := range s.holes {
		if pos > h.start && pos < h.end {
			return false
		}
	}
	return true
}

// isMutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	return pkgPathIs(t, "sync", "Mutex") || pkgPathIs(t, "sync", "RWMutex")
}

// inspectWithStack is ast.Inspect with the ancestor stack (outermost
// first, excluding n itself) passed to each visit.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// terminates reports whether the block's last statement unconditionally
// leaves the function (return or panic).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				return id.Name == "panic"
			}
		}
	}
	return false
}

// earlyExitBlock returns the innermost enclosing if-branch block that
// unconditionally returns — the `if cond { mu.Unlock(); return }` shape —
// or nil.
func earlyExitBlock(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i > 0; i-- {
		b, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		if _, ok := stack[i-1].(*ast.IfStmt); ok && terminates(b) {
			return b
		}
		return nil // some other block boundary first: not the early-exit shape
	}
	return nil
}

// lockSections scans one function body (excluding nested function
// literals, which run in their own scope and often on other goroutines)
// and returns its critical sections over mutexes spelled as a field named
// "mu" — the repository-wide convention for the shard slot lock and the
// WAL log lock — or as a bare mutex-typed identifier. Lock/Unlock pairs
// are matched textually by chain rendering, which is exactly how the code
// under analysis is written: the guarded value is bound to one local
// (`sl := s.slots[i]`) and every lock call goes through it.
//
// An Unlock inside an if-branch that returns is treated as an early exit:
// it punches a hole covering the rest of that branch but leaves the
// section open, so the fallthrough path — still holding the lock — stays
// covered.
func lockSections(info *types.Info, body *ast.BlockStmt) []section {
	type event struct {
		call     *ast.CallExpr
		name     string // Lock, RLock, Unlock, RUnlock
		chain    string
		deferred bool
		earlyEnd token.Pos // early-exit hole end (NoPos when not early-exit)
	}
	var events []event
	deferred := make(map[*ast.CallExpr]bool)
	inspectWithStack(body, func(n ast.Node, stack []ast.Node) bool {
		if n == body {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		switch name {
		case "Lock", "RLock", "Unlock", "RUnlock":
		default:
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !isMutexType(info.TypeOf(sel.X)) {
			return true
		}
		chain := chainString(sel.X)
		if chain == "" {
			return true
		}
		// Track the convention: a field named mu, or a bare mutex ident.
		if muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && muSel.Sel.Name != "mu" {
			return true
		}
		ev := event{call: call, name: name, chain: chain, deferred: deferred[call]}
		if b := earlyExitBlock(stack); b != nil && !ev.deferred {
			ev.earlyEnd = b.End()
		}
		events = append(events, ev)
		return true
	})

	var open []section
	var done []section
	for _, ev := range events {
		write := ev.name == "Lock" || ev.name == "Unlock"
		switch ev.name {
		case "Lock", "RLock":
			open = append(open, section{
				chain: ev.chain, write: write,
				span: span{start: ev.call.End()},
			})
		case "Unlock", "RUnlock":
			for i := len(open) - 1; i >= 0; i-- {
				s := &open[i]
				if s.chain != ev.chain || s.write != write {
					continue
				}
				switch {
				case ev.deferred:
					s.end = body.End()
					done = append(done, *s)
					open = append(open[:i], open[i+1:]...)
				case ev.earlyEnd != token.NoPos:
					// Early exit: the branch is unlocked from here to its
					// return, but the section survives it.
					s.holes = append(s.holes, span{start: ev.call.Pos(), end: ev.earlyEnd})
				default:
					s.end = ev.call.Pos()
					done = append(done, *s)
					open = append(open[:i], open[i+1:]...)
				}
				break
			}
		}
	}
	// Unmatched locks (the unlock lives behind control flow this scan
	// doesn't model) extend to the end of the function: erring long keeps
	// the analyzers sound against "forgot to check the rest".
	for i := range open {
		open[i].end = body.End()
		done = append(done, open[i])
	}
	return done
}

// lockedBody returns the implied write section for a function that holds
// its receiver's mu by contract — the repository's `fooLocked` naming
// convention ("Caller holds l.mu") — or false. The section spans the
// whole body, with the chain rendered through the receiver name.
func lockedBody(info *types.Info, fb funcBody) (section, bool) {
	if fb.decl == nil || !strings.HasSuffix(fb.name, "Locked") {
		return section{}, false
	}
	recv := fb.decl.Recv
	if recv == nil || len(recv.List) != 1 || len(recv.List[0].Names) != 1 {
		return section{}, false
	}
	recvName := recv.List[0].Names[0].Name
	t := info.TypeOf(recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if t == nil {
		return section{}, false
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return section{}, false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "mu" && isMutexType(f.Type()) {
			return section{
				chain: recvName + ".mu",
				write: true,
				span:  span{start: fb.body.Pos(), end: fb.body.End()},
			}, true
		}
	}
	return section{}, false
}
