package analyze

import (
	"junicon/internal/ast"
	"junicon/internal/value"
)

// bounded is the boundedness-aware sequence analysis. Icon bounds
// expressions in certain syntactic positions — a bounded expression
// produces at most one result and is never resumed (§2A). The pass tracks
// boundedness through the tree and reports
//
//   - JV003: `e1 | e2` in a bounded position where e1 cannot fail — the
//     single result always comes from e1, so e2 is unreachable (the
//     classic `if x | y then …` bug: a variable read never fails);
//   - JV004: `e \ n` where n is provably non-positive — the limited
//     expression can produce no results at all;
//   - JV009: `e1 to e2 by 0` — a zero increment raises error 211 at
//     runtime on the first step.
func (a *analyzer) bounded(n ast.Node, inBounded bool) {
	switch x := n.(type) {
	case nil:
		return
	case *ast.Binary:
		// Operands of products, assignments and operators are resumable;
		// the arms of an alternation share its boundedness.
		arms := false
		switch x.Op {
		case "|":
			if inBounded && cannotFail(x.L) {
				a.diag(x.R.Pos(), CodeDeadAlternative, Warning,
					"unreachable alternative: the left arm cannot fail, so this bounded expression never resumes into the right arm")
			}
			arms = inBounded
		case "\\":
			if lim, ok := intConst(x.R); ok && lim <= 0 {
				a.diag(x.P, CodeBadLimit, Warning,
					"limit %d is never positive: the limited expression can produce no results", lim)
			}
		}
		a.bounded(x.L, arms)
		a.bounded(x.R, arms)
	case *ast.Unary:
		// not e bounds its operand: one success or failure decides it.
		// Create expressions open a fresh (unbounded) generator body.
		a.bounded(x.X, x.Op == "not")
	case *ast.ToBy:
		if by, ok := intConst(x.By); ok && by == 0 {
			a.diag(x.P, CodeZeroStep, Error,
				"to-by increment is zero: this raises a runtime error on the first step")
		}
		a.bounded(x.Lo, false)
		a.bounded(x.Hi, false)
		a.bounded(x.By, false)
	case *ast.If:
		a.bounded(x.Cond, true)
		a.bounded(x.Then, inBounded)
		a.bounded(x.Else, inBounded)
	case *ast.While:
		a.bounded(x.Cond, true)
		a.bounded(x.Body, true)
	case *ast.Every:
		a.bounded(x.E, false) // generated to exhaustion, never bounded
		a.bounded(x.Body, true)
	case *ast.Repeat:
		a.bounded(x.Body, true)
	case *ast.Suspend:
		a.bounded(x.E, false) // every result is suspended
		a.bounded(x.Body, true)
	case *ast.Return:
		a.bounded(x.E, true)
	case *ast.Initial:
		a.bounded(x.Body, true)
	case *ast.Block:
		// Every statement of a compound is bounded except the last, whose
		// boundedness is the block's own.
		for i, s := range x.Stmts {
			a.bounded(s, i < len(x.Stmts)-1 || inBounded)
		}
	case *ast.VarDecl:
		for _, init := range x.Inits {
			a.bounded(init, true) // initializers take the first result
		}
	case *ast.Case:
		a.bounded(x.Subject, true)
		for _, c := range x.Clauses {
			// Selectors are alternatives: each is tried, so alternation in a
			// selector is genuinely multi-valued — not bounded.
			a.bounded(c.Sel, false)
			a.bounded(c.Body, inBounded)
		}
	default:
		for _, c := range ast.Children(n) {
			a.bounded(c, false)
		}
	}
}

// cannotFail reports whether an expression provably produces at least one
// result. Conservative: false when unsure.
func cannotFail(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.IntLit, *ast.RealLit, *ast.StrLit, *ast.CsetLit, *ast.ListLit,
		*ast.TmpRef:
		return true
	case *ast.Ident:
		// Dereferencing a variable never fails — the essence of the
		// `if x | y` bug this pass exists to catch.
		return true
	case *ast.Keyword:
		return x.Name != "fail"
	case *ast.Unary:
		switch x.Op {
		case "<>", "|<>", "|>":
			return true // creation always succeeds
		case "|":
			// Repeated alternation |e loops e's sequence; with a non-failing
			// operand it always has a first result.
			return cannotFail(x.X)
		}
		return false
	case *ast.Binary:
		switch x.Op {
		case "|":
			return cannotFail(x.L) || cannotFail(x.R)
		case ":=":
			if _, ok := identName(x.L); ok {
				return cannotFail(x.R)
			}
		}
		return false
	case *ast.If:
		return x.Else != nil && cannotFail(x.Then) && cannotFail(x.Else)
	case *ast.Block:
		// Bounded statement failures do not abort a compound; the block's
		// sequence is its last statement's.
		if len(x.Stmts) == 0 {
			return true
		}
		return cannotFail(x.Stmts[len(x.Stmts)-1])
	}
	return false
}

// intConst evaluates an integer-literal expression (allowing unary minus);
// ok is false for anything else.
func intConst(n ast.Node) (int64, bool) {
	switch x := n.(type) {
	case *ast.IntLit:
		iv, ok := value.ToInteger(value.String(x.Text))
		if !ok {
			return 0, false
		}
		return iv.Int64()
	case *ast.Unary:
		if x.Op == "-" {
			v, ok := intConst(x.X)
			return -v, ok
		}
	}
	return 0, false
}
