package lint

import (
	"fmt"
	"go/ast"
)

// putAfterClose reports values committed to a transport queue after it was
// closed in the same block. queue.Queue's contract (§3B bounded-buffer
// protocol) is that Close ends the stream: a Put or PutBatch sequenced
// after a Close on the same receiver either returns ErrClosed — a value
// silently dropped from the stream — or, in a racier arrangement, panics.
// A batching producer's end of stream is exactly where this mistake is easy
// to make (flush, close on EOS, then flush the leftover run).
//
// The check is per-block and order-based: a statement-level x.Close()
// followed by a later statement in the same block that mentions x.Put(…)
// or x.PutBatch(…). defer x.Close() does not count as closing — it runs
// last.
var putAfterClose = &Analyzer{
	Name: "putclose",
	Doc:  "queue Put/PutBatch sequenced after Close on the same receiver",
	Run:  runPutAfterClose,
}

func runPutAfterClose(f *File) []Finding {
	var out []Finding
	ast.Inspect(f.AST, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		closed := map[string]bool{}
		for _, stmt := range block.List {
			// A reassignment of the receiver starts a fresh queue.
			if as, ok := stmt.(*ast.AssignStmt); ok {
				for _, l := range as.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						delete(closed, id.Name)
					}
				}
			}
			if len(closed) > 0 {
				for recv := range closed {
					if call := findPutOn(stmt, recv); call != nil {
						out = append(out, Finding{
							Pos:   position(f, call),
							Check: "putclose",
							Msg: fmt.Sprintf(
								"%s on queue %q after %s.Close() in the same block: the value is dropped from the stream (ErrClosed at best)",
								callMethod(call), recv, recv),
						})
					}
				}
			}
			if es, ok := stmt.(*ast.ExprStmt); ok {
				if recv, name, call := selCall(es.X); call != nil && name == "Close" && recv != "" {
					closed[recv] = true
				}
			}
		}
		return true
	})
	return out
}

// findPutOn locates a Put/PutBatch call on recv anywhere under stmt,
// skipping nested function literals (they execute at some other time).
func findPutOn(stmt ast.Stmt, recv string) *ast.CallExpr {
	var out *ast.CallExpr
	ast.Inspect(stmt, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if r, name, call := selCall(n); call != nil && r == recv && (name == "Put" || name == "PutBatch") {
			out = call
		}
		return true
	})
	return out
}

func callMethod(c *ast.CallExpr) string {
	if sel, ok := c.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "call"
}
