package analyze

import (
	"junicon/internal/ast"
)

// dataflow.go holds the goal-directed dataflow checks over one scope:
//
//   - JV001: a read of a variable that no assignment in the program can
//     ever bind — under Icon's default-local rule the read can only ever
//     produce &null, so conditionals built on it are dead and products
//     through it never fail as intended;
//   - JV002: assignment to an operand that can never denote a variable
//     (a literal, an arithmetic result, a create expression …), which
//     raises "variable expected" at runtime;
//   - JV010: statements that can never execute because every path before
//     them leaves the enclosing block (return / fail / break / next).

// reads flags JV001 on the first read of each name in a root's sites that
// can never be bound.
func (a *analyzer) reads(sc *scope, sites []site) {
	seen := map[string]bool{}
	for _, s := range sites {
		if s.use&useCheck == 0 || seen[s.name] || a.bound(sc, s.name) {
			continue
		}
		seen[s.name] = true
		a.diag(s.node.Pos(), CodeNeverAssigned, Warning,
			"variable %q is read but never assigned: it can only ever be &null", s.name)
	}
}

// checkTarget reports JV002 when the node is statically a non-variable.
// Only certainly-wrong targets are flagged: calls, subscripts and fields
// may produce variable references, so they pass.
func (a *analyzer) checkTarget(n ast.Node) {
	switch x := n.(type) {
	case *ast.IntLit, *ast.RealLit, *ast.StrLit, *ast.CsetLit, *ast.ListLit, *ast.ToBy:
		a.diag(n.Pos(), CodeNonVariable, Error,
			"cannot assign to %s: a literal is not a variable", describe(n))
	case *ast.Keyword:
		// Only &subject and &pos are assignable keywords.
		if x.Name != "subject" && x.Name != "pos" {
			a.diag(x.P, CodeNonVariable, Error,
				"cannot assign to &%s: not an assignable keyword", x.Name)
		}
	case *ast.Unary:
		switch x.Op {
		case "*", "-", "+", "~", "not", "=", "<>", "|<>", "|>":
			a.diag(x.P, CodeNonVariable, Error,
				"cannot assign to the result of unary %q: not a variable", x.Op)
		}
	case *ast.Binary:
		if isValueOp(x.Op) {
			a.diag(x.P, CodeNonVariable, Error,
				"cannot assign to the result of operator %q: not a variable", x.Op)
		}
	}
}

// unreachable flags JV010 on the first statement of a block that follows
// an unconditional control transfer.
func (a *analyzer) unreachable(b *ast.Block) {
	for i, s := range b.Stmts[:max(len(b.Stmts)-1, 0)] {
		if transfersControl(s) {
			a.diag(b.Stmts[i+1].Pos(), CodeUnreachable, Warning,
				"unreachable: the preceding %s always leaves this block", describe(s))
			return // one report per block is enough
		}
	}
}

// transfersControl reports whether a statement unconditionally leaves the
// enclosing block. suspend does not: the producer resumes after it.
func transfersControl(s ast.Node) bool {
	switch s.(type) {
	case *ast.Return, *ast.Fail, *ast.Break, *ast.NextStmt:
		return true
	}
	return false
}

// describe names a node kind for diagnostics.
func describe(n ast.Node) string {
	switch x := n.(type) {
	case *ast.IntLit:
		return "integer literal " + x.Text
	case *ast.RealLit:
		return "real literal " + x.Text
	case *ast.StrLit:
		return "string literal"
	case *ast.CsetLit:
		return "cset literal"
	case *ast.ListLit:
		return "list constructor"
	case *ast.ToBy:
		return "to-by range"
	case *ast.Return:
		return "return"
	case *ast.Fail:
		return "fail"
	case *ast.Break:
		return "break"
	case *ast.NextStmt:
		return "next"
	case *ast.Ident:
		return "identifier " + x.Name
	default:
		return "expression"
	}
}
