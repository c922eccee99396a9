package compile

import (
	"junicon/internal/ast"
)

// This file lowers procedure-body statements, mirroring the interpreter's
// structural executor (interp.execStmt): statements are depth-neutral and
// failure-contained — every choice point a statement arms is consumed or
// cut before control falls through to the next statement — so suspension
// is the only way execution leaves a statement with live state.

// stmt compiles s in statement position.
func (c *compiler) stmt(s ast.Node) {
	switch x := s.(type) {
	case *ast.Block:
		// No block scope in Icon: statements share the procedure scope.
		for _, st := range x.Stmts {
			c.stmt(st)
		}

	case *ast.VarDecl:
		c.stmtVarDecl(x)

	case *ast.Initial:
		// Ran in the procedure's run-once prologue (statics).

	case *ast.Return:
		// A bare return returns &null (c.expr(nil)).
		d := c.depth
		m := c.bounded(x.E)
		c.leaveScans(-1, LeaveToResume)
		c.emit(OpReturn, 0, 0, 0)
		c.emit(OpFail, 0, 0, 0) // resumption after return fails the frame
		c.patchA(m)
		c.depth = d
		// A failing return expression fails the whole procedure.
		c.leaveScans(-1, LeaveForGood)
		c.emit(OpReturnFail, 0, 0, 0)

	case *ast.Fail:
		c.leaveScans(-1, LeaveForGood)
		c.emit(OpReturnFail, 0, 0, 0)

	case *ast.Suspend:
		c.suspendStmt(x)

	case *ast.If:
		c.ifExpr(x, true)

	case *ast.While:
		c.loopCompile(loopWhile, x.Cond, x.Body, x.Until, true)
	case *ast.Every:
		// `every suspend e [do body]` — the classic produce-all idiom — is
		// a suspend statement over e (the interpreter merges it the same
		// way; a bare Suspend node in expression position would not
		// compile).
		if sus, isSuspend := x.E.(*ast.Suspend); isSuspend {
			merged := &ast.Suspend{E: sus.E, Body: x.Body}
			merged.P = sus.P
			if sus.Body != nil {
				merged.Body = sus.Body
			}
			c.suspendStmt(merged)
			return
		}
		c.loopCompile(loopEvery, x.E, x.Body, false, true)
	case *ast.Repeat:
		c.loopCompile(loopRepeat, nil, x.Body, false, true)

	case *ast.Case:
		c.caseExpr(x, true)

	case *ast.Break:
		d := c.depth
		c.breakFrom(x.E)
		c.depth = d
	case *ast.NextStmt:
		d := c.depth
		c.nextFrom()
		c.depth = d

	case *ast.Binary:
		if x.Op == "?" {
			c.scanStmt(x)
			return
		}
		c.boundedDiscard(s)

	default:
		// Plain expression statement: bounded evaluation, outcome discarded.
		c.boundedDiscard(s)
	}
}

// stmtVarDecl compiles a local declaration statement: each cell is nulled
// before its initializer runs (the executor's Define-then-init order — the
// initializer of `local x := x + 1` reads null, not a stale value), and a
// failing initializer leaves the null. A name used above the declaration
// keeps what it resolved to there (see varDecl).
func (c *compiler) stmtVarDecl(x *ast.VarDecl) {
	if x.Kind == "static" {
		return // declared and initialized in the run-once prologue (statics)
	}
	for i, name := range x.Names {
		c.emit(OpNull, 0, 0, 0)
		c.declStore(x, name)
		c.emit(OpPop, 0, 0, 0)
		if x.Inits[i] == nil {
			continue
		}
		d := c.depth
		m := c.bounded(x.Inits[i])
		c.declStore(x, name)
		c.emit(OpPop, 0, 0, 0)
		c.patchA(m)
		c.depth = d
	}
}

// suspendStmt compiles suspend e [do body]: yield every result of e,
// running the (bounded) do-clause after each resumption; when e is spent,
// control continues with the next statement.
func (c *compiler) suspendStmt(x *ast.Suspend) {
	d := c.depth
	aux := c.newAux()
	m := c.emit(OpMark, -1, aux, 0)
	c.expr(x.E)
	if len(c.scans) == 0 {
		c.emit(OpYield, 0, 0, 0)
	} else {
		// While the procedure is suspended the caller's environment rules
		// (execScan's swappedYield); the value is dereferenced first, so
		// `suspend &pos` reads this scan, not the caller's.
		c.leaveScans(-1, LeaveToResume)
		c.emit(OpYield, 0, 0, 0)
		c.emit(OpScanResume, c.scans[0].aux, c.scans[len(c.scans)-1].aux, 0)
	}
	if x.Body != nil {
		c.boundedDiscard(x.Body)
	}
	c.emit(OpFail, 0, 0, 0) // resume e after each delivered result
	c.patchA(m)
	c.depth = d
}

// scanStmt compiles a scanning statement e1 ? e2 structurally, as execScan
// runs it: one subject value (failure skips the statement), the body as a
// statement — so suspend, return and break may appear inside it — and the
// environment left on every way out.
func (c *compiler) scanStmt(x *ast.Binary) {
	d := c.depth
	aux := c.newAux()
	m := c.emit(OpMark, -1, aux, 0)
	// The subject is bounded before the environment is entered, so the
	// entry needs no choice point of its own: the body is a statement, and
	// no failure can reach back past it.
	scan := c.scanBegin(x, aux)
	c.stmt(x.R)
	c.scans = c.scans[:len(c.scans)-1]
	c.emit(OpScanLeave, LeaveForGood, scan, 0)
	c.patchA(m)
	c.depth = d
}
