package lint

import (
	"fmt"
	"go/ast"
)

// inspectLeak reports observation records opened and then abandoned. An
// inspect.Open record sits in the live registry until Close retires it; a
// record whose variable dies unclosed stays in /debug/streams forever as a
// phantom "running" stream — a leak not of a goroutine but of
// observability itself, polluting every later topology snapshot and giving
// the stall watchdog a permanently idle stream to mis-diagnose — and never
// emits its stream-end.
//
// The check mirrors pipestop's two-pass shape: a creation is an assignment
// whose right side calls inspect.Open; release is h.Close() in receiver
// position. Any other appearance of the variable (argument, return, field
// store) is an escape and silences the check — whoever received the record
// owns its closing. Nil comparisons (`if h != nil`) are neutral: they are
// the idiomatic test of a record opened while every sink was off, not a
// transfer of ownership. An Open call whose result is discarded is always
// a finding — a record nobody holds can never be closed.
var inspectLeak = &Analyzer{
	Name: "inspectleak",
	Doc:  "observation record opened but never closed or passed on",
	Run:  runInspectLeak,
}

func runInspectLeak(f *File) []Finding {
	var out []Finding
	for _, decl := range f.AST.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		out = append(out, inspectLeakFunc(f, fn.Body)...)
	}
	return out
}

func inspectLeakFunc(f *File, body *ast.BlockStmt) []Finding {
	var out []Finding

	// Pass 1: creations. h := inspect.Open(…) binds h to a record; an Open
	// whose result is dropped (statement position, or assigned to _) is
	// flagged on the spot.
	created := map[string]ast.Node{} // name -> creation site
	neutral := map[ast.Node]bool{}   // ident nodes that are not value uses
	bindLHS := func(lhs []ast.Expr, rhs []ast.Expr) {
		for i, l := range lhs {
			id, ok := l.(*ast.Ident)
			if !ok {
				continue
			}
			neutral[id] = true
			if i >= len(rhs) || !callsOpen(rhs[i]) {
				continue
			}
			if id.Name == "_" {
				out = append(out, discardFinding(f, rhs[i]))
				continue
			}
			if _, dup := created[id.Name]; !dup {
				created[id.Name] = rhs[i]
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
		case *ast.ExprStmt:
			// Only a bare Open call is a discard; a chained
			// inspect.Open(…).Close() releases inline.
			if name, call := pkgCall(x.X, "inspect"); call != nil && name == "Open" {
				out = append(out, discardFinding(f, x.X))
			}
		}
		return true
	})
	if len(created) == 0 {
		return out
	}

	// Pass 2: uses. Receiver position classifies by method; a nil
	// comparison is the every-sink-off test and stays neutral; any other
	// appearance is an escape.
	released := map[string]bool{}
	escaped := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, tracked := created[id.Name]; tracked {
					neutral[id] = true
					if x.Sel.Name == "Close" {
						released[id.Name] = true
					}
				}
			}
		case *ast.BinaryExpr:
			// h == nil / h != nil: the test of a record opened while every
			// sink was off, not a use.
			for _, side := range []ast.Expr{x.X, x.Y} {
				if id, ok := side.(*ast.Ident); ok {
					if _, tracked := created[id.Name]; tracked && isNil(x.X) != isNil(x.Y) {
						neutral[id] = true
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

	for name, site := range created {
		if released[name] || escaped[name] {
			continue
		}
		out = append(out, Finding{
			Pos:   position(f, site),
			Check: "inspectleak",
			Msg: fmt.Sprintf(
				"record %q is never closed or passed on: it stays in the live stream registry forever (call %s.Close)",
				name, name),
		})
	}
	return out
}

func discardFinding(f *File, site ast.Node) Finding {
	return Finding{
		Pos:   position(f, site),
		Check: "inspectleak",
		Msg:   "inspect.Open result discarded: a record nobody holds can never be closed",
	}
}

// callsOpen reports whether the expression contains an inspect.Open call
// (outside nested function literals, whose records belong to their own
// scope).
func callsOpen(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if name, call := pkgCall(n, "inspect"); call != nil && name == "Open" {
			found = true
		}
		_, isLit := n.(*ast.FuncLit)
		return !found && !isLit
	})
	return found
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
