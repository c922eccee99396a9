package analyze

import (
	"junicon/internal/ast"
)

// local walks one root of a scope for the checks each node decides with
// the scope's table at hand: JV002 and JV010 (dataflow.go) and the checks
// grounded in the calculus of concurrent generators (Figure 1) and its
// degenerate forms (§4):
//
//   - JV005: `@e` / `x @ e` where e is statically not a co-expression or
//     pipe — activation of a plain value raises "co-expression expected";
//   - JV006: `^e` where e is a pipe. The calculus defines refresh for
//     co-expressions only; a pipe is restarted by re-creating it with |>,
//     and refreshing one silently abandons the producer thread;
//   - JV007: `x := |> …@x…` — the pipe's producer activates the pipe it
//     feeds. Under a bounded buffer (buffer 1: the future/M-var
//     degeneration of §4) producer and consumer wait on each other and
//     the program deadlocks;
//   - JV008: `|<>e` (or `|>e`) whose body assigns a variable it was
//     declared to snapshot — the body mutates its private copy, so the
//     update is invisible to the enclosing scope.
func (a *analyzer) local(sc *scope, root ast.Node) {
	ast.Walk(root, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.Block:
			a.unreachable(x)
		case *ast.Unary:
			switch x.Op {
			case "@":
				a.checkCoexpr(sc, x.X, "activation", "@")
			case "^":
				a.checkRefresh(sc, x.X)
			case "|<>", "|>":
				a.checkShadowMutation(sc, sc.createOf(x))
			}
		case *ast.Binary:
			if isAssignOp(x.Op) {
				a.checkTarget(x.L)
				if x.Op == ":=:" || x.Op == "<->" {
					a.checkTarget(x.R)
				}
			}
			if x.Op == "@" {
				a.checkCoexpr(sc, x.R, "activation", "@")
			}
			if x.Op == ":=" {
				a.checkSelfActivation(sc, x)
			}
		}
		return true
	})
}

// checkCoexpr flags JV005 when the activated or refreshed operand is
// statically a plain value.
func (a *analyzer) checkCoexpr(sc *scope, e ast.Node, what, op string) {
	if name, ok := identName(e); ok {
		if sc.onlyKind(name, kindValue) && !sc.has(name, symParam) && !a.globals[name] && !a.known(name) {
			a.diag(e.Pos(), CodeNotCoexpr, Error,
				"%s of %q, which is never a co-expression or pipe in this scope", what, name)
		}
		return
	}
	if exprKind(e) == kindValue {
		a.diag(e.Pos(), CodeNotCoexpr, Error,
			"%s of %s: %s requires a co-expression or pipe", what, describe(e), op)
	}
}

// checkRefresh flags JV006 when the refreshed operand is a pipe, and
// JV005 when it is a plain value: refreshing one raises like activating it.
func (a *analyzer) checkRefresh(sc *scope, e ast.Node) {
	u, isCreate := e.(*ast.Unary)
	name, isName := identName(e)
	if (isCreate && u.Op == "|>") || (isName && sc.onlyKind(name, kindPipe)) {
		a.diag(e.Pos(), CodePipeRefresh, Warning,
			"refresh (^) of a pipe is undefined in the calculus of concurrent generators: re-create it with |> instead")
	}
	a.checkCoexpr(sc, e, "refresh", "^")
}

// checkSelfActivation flags JV007 on `x := |> body` where body activates
// or promotes x.
func (a *analyzer) checkSelfActivation(sc *scope, assign *ast.Binary) {
	name, ok := identName(assign.L)
	create, isCreate := assign.R.(*ast.Unary)
	if !ok || !isCreate || create.Op != "|>" {
		return
	}
	for _, s := range sc.drains(sc.createOf(create)) {
		if s.name == name {
			a.diag(s.node.Pos(), CodeSelfActivation, Warning,
				"pipe assigned to %q consumes itself inside its own producer: a bounded pipe (buffer 1: the future/M-var degeneration) deadlocks here", name)
		}
	}
}

// checkShadowMutation flags JV008 on assignments inside a shadowed create
// expression (|<>e, |>e) whose targets are variables of the enclosing
// scope — exactly the names the co-expression snapshots at creation. A
// nested shadowed create owns its own assignments, and names declared
// local inside the body belong to the body.
func (a *analyzer) checkShadowMutation(sc *scope, c *create) {
	reported := map[string]bool{}
	for _, s := range sc.sites {
		if s.in != c || s.use&useTarget == 0 || reported[s.name] || sc.usedIn(s.name, useDecl, c, true) || !sc.outer(s.name, c) {
			continue
		}
		reported[s.name] = true
		a.diag(s.node.Pos(), CodeShadowMutation, Warning,
			"%s snapshots %q: this assignment mutates the co-expression's private copy and is invisible to the enclosing scope", c.node.Op, s.name)
	}
}
