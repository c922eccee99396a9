package compile

import (
	"fmt"
	"strings"

	"junicon/internal/ast"
	"junicon/internal/value"
)

// This file lowers the forms whose state outlives one pass over an
// expression: static variables and initial clauses, string scanning, and
// co-expression and pipe creation.

// ----- static / initial -----

// statics declares the procedure's static variables and compiles its
// run-once prologue, as makeProc does: only the body's own statements
// count (a nested `static` is inert there too), every static is a cell
// shared by all invocations, and on the first invocation the static
// initializers and `initial` clauses run, bounded, in statement order.
//
// A static is a cell private to the code object, addressed like a global
// under a name no source identifier can spell, so loads, stores, fused
// updates and snapshots treat it as one. The guard is one more such cell.
func (c *compiler) statics(d *ast.ProcDecl) {
	private := func(name string) int32 {
		return c.global("static "+d.Name+"."+name, value.NewCell(value.NullV))
	}
	once := false
	for _, s := range d.Body.Stmts {
		switch x := s.(type) {
		case *ast.VarDecl:
			if x.Kind != "static" {
				continue
			}
			for i, name := range x.Names {
				if _, dup := c.globalIdx[name]; !dup {
					c.globalIdx[name] = int(private(name))
				}
				once = once || x.Inits[i] != nil
			}
		case *ast.Initial:
			once = true
		}
	}
	if !once {
		return
	}
	guard := c.emit(OpInitOnce, -1, 0, private("(initial)"))
	for _, s := range d.Body.Stmts {
		switch x := s.(type) {
		case *ast.VarDecl:
			if x.Kind != "static" {
				continue
			}
			for i, name := range x.Names {
				if x.Inits[i] == nil {
					continue
				}
				// The cell itself, not whatever the name resolves to: a
				// parameter of the same name shadows the static in the
				// body but not here.
				m := c.bounded(x.Inits[i])
				c.emit(OpStoreGlobal, int32(c.globalIdx[name]), 0, 0)
				c.emit(OpPop, 0, 0, 0)
				c.patchA(m)
			}
		case *ast.Initial:
			c.boundedDiscard(x.Body)
		}
	}
	c.patchA(guard)
}

// ----- string scanning -----

// scanBegin compiles the subject of `x.L ? …` and enters its environment,
// returning the environment's cell. With bound >= 0 the subject is cut to
// one value at that mark's barrier and the entry arms no choice point;
// otherwise the entry's choice point leaves the environment again when the
// body is spent. The caller compiles the body, pops c.scans and leaves.
func (c *compiler) scanBegin(x *ast.Binary, bound int32) int32 {
	if c.env.Scan == nil {
		c.unsupported(x, "string scanning without a scan environment")
	}
	c.code.Scan = c.env.Scan
	aux := c.newAux()
	c.expr(x.L)
	arm := int32(1)
	if bound >= 0 {
		c.emit(OpCut, 0, bound, 0)
		arm = 0
	}
	c.emit(OpScanBegin, arm, aux, 0)
	c.scans = append(c.scans, scanCtx{aux: aux, loops: len(c.loops)})
	return aux
}

// scanVar pushes the &subject or &pos variable.
func (c *compiler) scanVar(k *ast.Keyword) {
	if c.env.Scan == nil {
		c.unsupported(k, "keyword &"+k.Name+" without a scan environment")
	}
	c.code.Scan = c.env.Scan
	which := int32(0)
	if k.Name == "pos" {
		which = 1
	}
	c.emit(OpScanVar, which, 0, 0)
}

// leaveScans emits the exit from every scanning environment opened inside
// loop number `loop` of c.loops (-1: anywhere in the unit) — what the
// non-local exits break, next, return and fail cross. Leaving the
// outermost of them restores the environment that was current before any
// was entered. mode is OpScanLeave's A operand.
func (c *compiler) leaveScans(loop int, mode int32) {
	for _, s := range c.scans {
		if s.loops > loop {
			c.emit(OpScanLeave, mode, s.aux, 0)
			return
		}
	}
}

// ----- co-expression and pipe creation -----

// create compiles |<>e and |>e. The body becomes a nested unit whose
// parameters are the names it captures; the site pushes their current
// values and OpCreate copies them into the new co-expression, which
// instantiates the unit over a fresh copy on first activation and on each
// refresh (§5D: shadowed locals, so nothing the body does leaks out).
func (c *compiler) create(x *ast.Unary) {
	names := c.captures(x.X)
	c.nested(x, names, true, false)
	for _, name := range names {
		c.loadName(x, name, false)
	}
	mode := int32(0)
	if x.Op == "|>" {
		inline, buffer := false, 0
		if c.env.PipeStrategy != nil {
			inline, buffer = c.env.PipeStrategy(x.X)
		}
		switch {
		case inline:
			mode = PipeInline
		case buffer > 0:
			mode = int32(buffer)
		default:
			mode = PipeDefault
		}
	}
	c.emit(OpCreate, int32(len(names)), int32(len(c.code.Subs)-1), mode)
}

// nested compiles the body of a create site as a nested unit of c whose
// parameters are names: copies of their values, or with shares the cells
// themselves (a bare <>).
func (c *compiler) nested(x *ast.Unary, names []string, procMode, shares bool) {
	sub := newCompiler(c.env, procMode)
	sub.root = c.root
	sub.boxed = boxNames(x.X)
	sub.code.Name = fmt.Sprintf("%s%s%d", c.code.Name, x.Op, len(c.code.Subs))
	sub.code.Params = len(names)
	sub.code.Shares = shares
	for _, name := range names {
		sub.boxed[name] = sub.boxed[name] || shares
		sub.slot(name)
	}
	sub.expr(x.X)
	sub.emit(OpYield, 0, 0, 0)
	sub.emit(OpFail, 0, 0, 0)
	c.code.Subs = append(c.code.Subs, sub.finish())
}

// OpCreate's C operand: 0 creates a co-expression, a positive value a pipe
// with that queue bound, and these two a pipe provisioned otherwise.
// CreateFirstClass makes a bare <> over cells the site pushed.
const (
	PipeDefault      = -1 // the runtime's default queue bound
	PipeInline       = -2 // no producer thread: a pure body stepped in place
	CreateFirstClass = -3 // <>e: no thread, no copy; the body shares the cells
)

// firstClass compiles a bare <>e. The body shares the creating scope
// unshadowed, so it is a nested unit whose parameters are the cells of
// the names it captures: a local's box (boxNames marked it before its slot
// was allocated), or a global's or static's own cell. The site pushes the
// cells, and the body reads and writes through them.
func (c *compiler) firstClass(x *ast.Unary) {
	names := c.captures(x.X)
	c.nested(x, names, c.procMode, true)
	for _, name := range names {
		c.ref(&ast.Ident{Name: name})
	}
	c.emit(OpCreate, int32(len(names)), int32(len(c.code.Subs)-1), CreateFirstClass)
}

// boxNames lists the names a unit must keep in cells rather than plain
// slots: those a bare <> body uses (it shares them with this scope) and
// those an assignment target other than a name, subscript, field or
// keyword may reach by reference. Create bodies are units of their own and copy values, so the
// walk does not enter them. Only names that turn out to be slots are
// boxed; the rest resolve as they always do.
func boxNames(body ast.Node) map[string]bool {
	boxed := map[string]bool{}
	names := func(n ast.Node) {
		ast.Walk(n, func(m ast.Node) bool {
			if name, ok := m.(*ast.Ident); ok {
				boxed[name.Name] = true
			} else if tmp, ok := m.(*ast.TmpRef); ok {
				boxed[tmp.Name] = true
			}
			return true
		})
	}
	target := func(n ast.Node) {
		switch n.(type) {
		case *ast.Ident, *ast.TmpRef, *ast.Index, *ast.Field, *ast.Keyword:
		default:
			names(n)
		}
	}
	ast.Walk(body, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.Unary:
			switch x.Op {
			case "|<>", "|>":
				return false
			case "<>":
				names(x.X)
			}
		case *ast.Binary:
			if x.Op == ":=:" || x.Op == "<->" {
				target(x.R)
			}
			if assigns(x.Op) {
				target(x.L)
			}
		}
		return true
	})
	return boxed
}

// assigns reports whether op assigns to its left operand.
func assigns(op string) bool {
	return strings.HasSuffix(op, ":=") || op == "<-" || op == ":=:" || op == "<->"
}

// captures lists, in first-use order, the names in a create body that the
// creating scope binds — what the tree walk finds by scoping up (§5D):
// its scope chain runs through locals, statics and globals, so all three
// are copied; builtins are not in it. A name nothing binds yet is a local
// of the creating procedure (null now, but a loop may come round again
// with it assigned); at top level it stays the body's own unless the
// enclosing expression also uses it, in which case building that
// expression has already made it a global.
func (c *compiler) captures(body ast.Node) []string {
	var names []string
	seen := map[string]bool{}
	ast.Walk(body, func(m ast.Node) bool {
		var name string
		switch id := m.(type) {
		case *ast.Ident:
			name = id.Name
		case *ast.TmpRef:
			name = id.Name
		default:
			return true
		}
		if seen[name] {
			return true
		}
		seen[name] = true
		if c.binds(m, name) {
			names = append(names, name)
		}
		return true
	})
	return names
}

// outerNames collects the names a top-level expression uses outside any
// create body.
func outerNames(n ast.Node) map[string]bool {
	names := map[string]bool{}
	ast.Walk(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.Unary:
			return x.Op != "|<>" && x.Op != "|>"
		case *ast.Ident:
			names[x.Name] = true
		}
		return true
	})
	return names
}

// binds reports whether the creating scope binds name (see captures).
func (c *compiler) binds(n ast.Node, name string) bool {
	if _, tmp := n.(*ast.TmpRef); tmp {
		_, ok := c.slotIdx[name]
		return ok // else bound by a BindIn inside the body
	}
	if c.bound(name) {
		return true
	}
	if _, ok := c.env.LookupConst(name); ok {
		return false
	}
	if c.procMode {
		return true
	}
	if c.outer == nil {
		c.outer = outerNames(c.root)
	}
	return c.outer[name]
}
