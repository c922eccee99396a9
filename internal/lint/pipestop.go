package lint

import (
	"fmt"
	"go/ast"
)

// pipeStop reports pipes created and then abandoned. A Pipe's producer is
// a goroutine (or a pooled task) parked against a bounded queue; it is
// released by Stop, by draining to exhaustion through First, or by handing
// the pipe to someone else who will. A function that creates a pipe, uses
// it only through non-releasing methods (Next, Err, Restart, StartEager)
// and lets the variable die leaks the producer — the dynamic counterpart
// of the analyzer's JV013, enforced on the host side.
//
// The check is syntactic: a creation is an assignment whose right side
// calls pipe.New / pipe.FromGen / pipe.FromGenBatched /
// pipe.NewBatchedWithQueue / pipe.NewInline / pipe.Chain. Any appearance
// of the variable outside method-receiver position (argument, return
// value, composite literal, channel send, assignment to a field) counts as
// an escape and silences the check — whoever received the value owns the
// release.
var pipeStop = &Analyzer{
	Name: "pipestop",
	Doc:  "pipe created but never stopped, drained or passed on",
	Run:  runPipeStop,
}

var pipeCreators = map[string]bool{
	"New": true, "FromGen": true, "FromGenBatched": true,
	"NewBatchedWithQueue": true, "NewInline": true, "Chain": true, "Over": true,
}

// Releasing methods end the producer; aliasing methods hand the same pipe
// onward (their result carries the release duty), so both silence the
// check.
var (
	pipeReleasers = map[string]bool{"Stop": true, "First": true, "Drain": true}
	pipeAliasers  = map[string]bool{"OnPool": true, "Out": true, "Stream": true}
)

func runPipeStop(f *File) []Finding {
	var out []Finding
	for _, decl := range f.AST.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		out = append(out, pipeStopFunc(f, fn.Body)...)
	}
	return out
}

func pipeStopFunc(f *File, body *ast.BlockStmt) []Finding {
	// Pass 1: creations. v := …pipe.X(…)… binds v to a fresh pipe; the
	// LHS ident nodes are remembered so pass 2 does not read them as uses.
	created := map[string]ast.Node{} // name -> creation site
	neutral := map[ast.Node]bool{}   // ident nodes that are not value uses
	bindLHS := func(lhs []ast.Expr, rhs []ast.Expr) {
		for i, l := range lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			neutral[id] = true
			if i < len(rhs) && createsPipe(rhs[i]) {
				if _, dup := created[id.Name]; !dup {
					created[id.Name] = rhs[i]
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				bindLHS(x.Lhs, x.Rhs)
			} else {
				for _, l := range x.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						neutral[id] = true
					}
				}
			}
		case *ast.ValueSpec:
			var lhs []ast.Expr
			for _, id := range x.Names {
				lhs = append(lhs, id)
			}
			bindLHS(lhs, x.Values)
		}
		return true
	})
	if len(created) == 0 {
		return nil
	}

	// Pass 2: uses. Receiver position classifies by method; any other
	// appearance is an escape.
	released := map[string]bool{}
	escaped := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				if _, tracked := created[id.Name]; tracked {
					neutral[id] = true
					switch {
					case pipeReleasers[sel.Sel.Name]:
						released[id.Name] = true
					case pipeAliasers[sel.Sel.Name]:
						escaped[id.Name] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || neutral[id] {
			return true
		}
		if _, tracked := created[id.Name]; tracked {
			escaped[id.Name] = true
		}
		return true
	})

	var out []Finding
	for name, site := range created {
		if released[name] || escaped[name] {
			continue
		}
		out = append(out, Finding{
			Pos:   position(f, site),
			Check: "pipestop",
			Msg: fmt.Sprintf(
				"pipe %q is never stopped, drained or passed on: its producer goroutine leaks (call %s.Stop, or hand the pipe to its consumer)",
				name, name),
		})
	}
	return out
}

// createsPipe reports whether the expression contains a pipe constructor
// call (possibly under a method chain like pipe.FromGen(g, 8).OnPool(pl)).
func createsPipe(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if name, call := pkgCall(n, "pipe"); call != nil && pipeCreators[name] {
			found = true
		}
		// A pipe created inside a nested function literal belongs to that
		// literal's scope, not this assignment.
		_, isLit := n.(*ast.FuncLit)
		return !found && !isLit
	})
	return found
}
