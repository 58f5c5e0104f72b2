package ingest

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

// applyMethods are the shard.Summary operations that admit data into (or
// expire or delete it from) the queryable structure.
var applyMethods = map[string]bool{
	"Insert": true, "InsertBatch": true, "InsertShardAt": true,
	"ExpireAt": true, "ExpireShardAt": true, "DeleteAt": true,
}

// applySites returns, sorted, one "<func>: <method>" entry per shard apply
// call in the parsed files — "<func> in <admit|AppendRecord> deliver:
// <method>" when the call sits inside a func literal passed to a log
// append, i.e. runs under the log mutex at the record's sequence position.
func applySites(files ...*ast.File) []string {
	var sites []string
	for _, file := range files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var stack []ast.Node
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !applyMethods[sel.Sel.Name] {
					return true
				}
				where := fn.Name.Name
				for i := len(stack) - 1; i > 0; i-- {
					lit, isLit := stack[i].(*ast.FuncLit)
					outer, isCall := stack[i-1].(*ast.CallExpr)
					if !isLit || !isCall {
						continue
					}
					appendSel, ok := outer.Fun.(*ast.SelectorExpr)
					if !ok || (appendSel.Sel.Name != "admit" && appendSel.Sel.Name != "AppendRecord") {
						continue
					}
					for _, arg := range outer.Args {
						if arg == lit {
							where += " in " + appendSel.Sel.Name + " deliver"
						}
					}
				}
				sites = append(sites, where+": "+sel.Sel.Name)
				return true
			})
		}
	}
	sort.Strings(sites)
	return sites
}

// TestShardApplySites holds the durability-before-visibility rule of the
// ingest path (DESIGN.md §12) that the deleted wallorder analyzer used to
// police: in package ingest a shard apply happens only
//
//   - in drain, the committers' one apply: it applies batches Submit
//     enqueued inside its append's deliver callback — under the log mutex,
//     so per-shard queue order is sequence order and nothing becomes
//     queryable that the log has not sequenced (InsertShardAt has no other
//     caller on the live path);
//   - inside the deliver callback Expire and Delete hand admit, behind a
//     flush barrier, at the record's own sequence position;
//   - in Applier.Apply, which replays records already durable in a log,
//     in log order — there is no admission to gate.
//
// A new apply anywhere else can make an edge queryable that a crash would
// erase, or apply two batches in an order the log disagrees with: route it
// through Submit/Expire/Delete instead of extending this list.
func TestShardApplySites(t *testing.T) {
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
	want := []string{
		"Apply: DeleteAt",
		"Apply: ExpireShardAt",
		"Apply: InsertShardAt",
		"Delete in admit deliver: DeleteAt",
		"Expire in admit deliver: ExpireAt",
		"drain: InsertShardAt",
	}
	if got := applySites(files...); !reflect.DeepEqual(got, want) {
		t.Fatalf("shard apply sites in package ingest = %q, want %q", got, want)
	}

	// The check must see an added site, and must not mistake an apply that
	// merely shares a function with an append for one inside its callback.
	sneak, err := parser.ParseFile(fset, "sneak.go", `package ingest
func (p *Pipeline) Sneak(e []stream.Edge) {
	p.admit(wal.Record{Type: wal.RecordEdges, Edges: e}, func(uint64) error { return nil })
	p.sum.InsertShardAt(0, e, 0)
}`, 0)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, "Sneak: InsertShardAt")
	sort.Strings(want)
	if got := applySites(append(files, sneak)...); !reflect.DeepEqual(got, want) {
		t.Fatalf("checker missed an added apply site: got %q, want %q", got, want)
	}
}
