package compile

import (
	"fmt"
	"strings"

	"junicon/internal/ast"
	"junicon/internal/value"
)

// This file lowers expressions. The compilation schemes mirror the kernel
// combinators instruction for instruction: wherever the tree walk would
// build a generator whose Next/Restart drives sub-generators, the compiled
// form arms choice points (OpMark/OpFork) whose failure paths re-enter the
// same sub-expression code. Stack depth at every pc is static; the compiler
// tracks it (c.depth) so non-local exits (break/next) can truncate the
// operand stack to the loop's entry depth.

// expr compiles n in generative expression position: the emitted code
// pushes exactly one value per result, and failing into its choice points
// produces the rest of the sequence.
func (c *compiler) expr(n ast.Node) {
	switch x := n.(type) {
	case nil:
		c.emit(OpNull, 0, 0, 0)

	// ----- literals and names -----
	case *ast.IntLit:
		if i, ok := value.ToInteger(value.String(x.Text)); ok {
			c.emit(OpConst, c.constant(i, "int:"+x.Text), 0, 0)
		} else {
			c.raise(value.ErrInteger, "malformed integer literal"+at(n)+offending(x.Text))
		}
	case *ast.RealLit:
		if r, ok := value.ToReal(value.String(x.Text)); ok {
			c.emit(OpConst, c.constant(r, "real:"+x.Text), 0, 0)
		} else {
			c.raise(value.ErrNumeric, "malformed real literal"+at(n)+offending(x.Text))
		}
	case *ast.StrLit:
		c.emit(OpConst, c.constant(value.String(x.Value), "str:"+x.Value), 0, 0)
	case *ast.CsetLit:
		c.emit(OpConst, c.constant(value.NewCset(x.Value), "cset:"+x.Value), 0, 0)
	case *ast.Keyword:
		c.keyword(x)
	case *ast.Ident:
		c.loadName(x, x.Name, false)
	case *ast.TmpRef:
		c.loadName(x, x.Name, true)
	case *ast.ListLit:
		for _, e := range x.Elems {
			c.expr(e)
		}
		c.emit(OpMakeList, int32(len(x.Elems)), 0, 0)

	// ----- normalized forms -----
	case *ast.FlatProduct:
		c.product(x.Terms, c.expr)
	case *ast.BindIn:
		c.expr(x.E)
		if i := c.slot(x.Tmp); c.boxedSlot(i) {
			c.emit(OpStoreBox, i, 1, 0)
		} else {
			c.emit(OpBindSlot, i, 0, 0)
		}

	// ----- operators -----
	case *ast.Binary:
		c.binary(x)
	case *ast.Unary:
		c.unary(x)
	case *ast.ToBy:
		c.expr(x.Lo)
		c.expr(x.Hi)
		if x.By == nil {
			c.emit(OpConst, c.constant(value.NewInt(1), "int:1"), 0, 0)
		} else {
			c.expr(x.By)
		}
		c.emit(OpToBy, 0, c.newAux(), 0)

	// ----- primaries -----
	case *ast.Call:
		c.call(x)
	case *ast.NativeCall:
		c.nativeCall(x)
	case *ast.Index:
		c.expr(x.X)
		c.expr(x.I)
		c.emit(OpIndex, 0, 0, 0)
	case *ast.Slice:
		c.expr(x.X)
		c.expr(x.I)
		c.expr(x.J)
		c.emit(OpSection, 0, 0, 0)
	case *ast.Field:
		c.expr(x.X)
		c.emit(OpField, c.constant(value.String(x.Name), "str:"+x.Name), 0, 0)

	// ----- control -----
	case *ast.Block:
		switch len(x.Stmts) {
		case 0:
			c.emit(OpNull, 0, 0, 0)
		case 1:
			c.expr(x.Stmts[0])
		default:
			for _, s := range x.Stmts[:len(x.Stmts)-1] {
				c.boundedDiscard(s)
			}
			c.expr(x.Stmts[len(x.Stmts)-1])
		}
	case *ast.VarDecl:
		c.varDecl(x)
		c.emit(OpNull, 0, 0, 0) // the declaration's value is &null
	case *ast.If:
		c.ifExpr(x, false)
	case *ast.While:
		c.loopCompile(loopWhile, x.Cond, x.Body, x.Until, false)
	case *ast.Every:
		c.loopCompile(loopEvery, x.E, x.Body, false, false)
	case *ast.Repeat:
		c.loopCompile(loopRepeat, nil, x.Body, false, false)
	case *ast.Case:
		c.caseExpr(x, false)
	case *ast.Break:
		d := c.depth
		c.breakFrom(x.E)
		c.depth = d + 1 // never falls through; callers see one pushed value
	case *ast.NextStmt:
		d := c.depth
		c.nextFrom()
		c.depth = d + 1
	case *ast.Fail:
		c.emit(OpFail, 0, 0, 0)
		c.depth++

	case *ast.Return, *ast.Suspend:
		c.raise(value.ErrProcedure, "return/suspend outside a procedure body"+at(n))
	default: // an initial clause in expression position
		c.raise(value.ErrProcedure, "cannot evaluate node"+at(n))
	}
}

// at is the " at line:col" the tree walk's messages locate a form by.
func at(n ast.Node) string { return fmt.Sprintf(" at %d:%d", n.Pos().Line, n.Pos().Col) }

// offending is how a runtime error's message ends for its offending value.
func offending(text string) string { return ": offending value " + value.Image(value.String(text)) }

// keyword compiles &-keywords. &subject and &pos push the assignable
// variable over the current scanning environment; consumers dereference it
// where the tree walk does.
func (c *compiler) keyword(k *ast.Keyword) {
	switch k.Name {
	case "subject", "pos":
		c.scanVar(k)
	case "null":
		c.emit(OpNull, 0, 0, 0)
	case "fail":
		c.emit(OpFail, 0, 0, 0)
		c.depth++
	case "lcase":
		c.emit(OpConst, c.constant(value.CsetLcase, "kw:lcase"), 0, 0)
	case "ucase":
		c.emit(OpConst, c.constant(value.CsetUcase, "kw:ucase"), 0, 0)
	case "digits":
		c.emit(OpConst, c.constant(value.CsetDigits, "kw:digits"), 0, 0)
	case "letters":
		c.emit(OpConst, c.constant(value.CsetLetters, "kw:letters"), 0, 0)
	default:
		c.raise(value.ErrProcedure, "unknown keyword &"+k.Name)
	}
}

// binary compiles binary operators.
func (c *compiler) binary(x *ast.Binary) {
	switch x.Op {
	case "&":
		c.product([]ast.Node{x.L, x.R}, c.expr)
		return
	case "|":
		c.alternate(x.L, x.R, c.expr)
		return
	case ":=":
		c.assign(x.L, x.R)
		return
	case "\\":
		// The count is evaluated first, as in Icon (LimitGen).
		aux := c.newAux()
		c.expr(x.R)
		c.emit(OpLimitBegin, 0, aux, 0)
		c.expr(x.L)
		c.emit(OpLimitCheck, 0, aux, 0)
		return
	case "<-":
		// Target outer, source inner, as RevAssignTo orders its operands.
		t := c.target(x.L)
		c.expr(x.R)
		if kind, _ := SplitTarget(t); kind == targetConst {
			c.store(x.L, t)
		} else {
			c.emit(OpRevAssign, t, c.newAux(), 0)
		}
		return
	case ":=:", "<->":
		l := c.target(x.L)
		r := c.target(x.R)
		lk, li := SplitTarget(l)
		rk, ri := SplitTarget(r)
		switch {
		case lk == targetConst:
			c.cannotAssign(x.L, li)
			c.depth += 1 - TargetRefs(l, r)
		case rk == targetConst:
			// The left side takes the right's value before the right
			// side's store raises, as SwapVars orders them.
			c.emit(OpConst, ri, 0, 0)
			c.store(x.L, l)
			c.store(x.R, r)
		case x.Op == ":=:":
			c.emit(OpSwap, l, c.newAux(), r)
		default:
			c.emit(OpRevSwap, l, c.newAux(), r)
		}
		return
	case "@":
		c.expr(x.L)
		c.expr(x.R)
		c.emit(OpActivate, 1, 0, 0)
		return
	case "?":
		// Entering arms the choice point that leaves the environment when
		// the body is spent; each result leaves it and arms the one that
		// re-enters — scanGen's swap around every body step.
		aux := c.scanBegin(x, -1)
		c.expr(x.R)
		c.scans = c.scans[:len(c.scans)-1]
		c.emit(OpScanEnd, 0, aux, 0)
		return
	}
	if i, ok := arithIndex[x.Op]; ok {
		c.expr(x.L)
		c.expr(x.R)
		c.emit(OpArith, int32(i), 0, 0)
		return
	}
	if i, ok := cmpIndex[x.Op]; ok {
		c.expr(x.L)
		c.expr(x.R)
		c.emit(OpCmp, int32(i), 0, 0)
		return
	}
	if !c.augAssign(x) {
		c.raise(value.ErrProcedure, "unknown operator "+x.Op+at(x))
	}
}

// repeat compiles |e, e by body: the RepAlt cell notes whether the
// current cycle produced anything; an empty cycle fails the construct.
func (c *compiler) repeat(e ast.Node, body func(ast.Node)) {
	aux := c.newAux()
	top := c.emit(OpRepAlt, 0, aux, 0)
	c.code.Instrs[top].A = int32(top + 1)
	body(e)
	c.emit(OpRepNote, 0, aux, 0)
}

// unary compiles prefix operators.
func (c *compiler) unary(x *ast.Unary) {
	switch x.Op {
	case "!":
		c.expr(x.X)
		c.emit(OpBang, 0, c.newAux(), 0)
	case "/":
		c.expr(x.X)
		c.emit(OpNullTest, 0, 0, 0)
	case "\\":
		c.expr(x.X)
		c.emit(OpNonNullTest, 0, 0, 0)
	case "|":
		c.repeat(x.X, c.expr)
	case "not":
		d := c.depth
		m := c.bounded(x.X)
		c.emit(OpPop, 0, 0, 0)
		c.emit(OpFail, 0, 0, 0)
		c.patchA(m)
		c.depth = d
		c.emit(OpNull, 0, 0, 0)
	case "-", "+", "~", "*", "^":
		c.expr(x.X)
		c.emit(OpUnary, int32(unaryIndex[x.Op]), 0, 0)
	case "?":
		c.expr(x.X)
		c.emit(OpRandom, 0, 0, 0)
	case "=":
		// =s is tabMatch(s), the scan library's reversible tab(match(s)).
		tm, ok := c.env.LookupConst("tabMatch")
		if !ok {
			c.unsupported(x, "tab-match =x without a scan library")
		}
		c.emit(OpConst, c.constant(tm, "name:tabMatch"), 0, 0)
		c.expr(x.X)
		c.emit(OpCall, 1, c.newAux(), 0)
	case "@":
		c.expr(x.X)
		c.emit(OpActivate, 0, 0, 0)
	case "|<>", "|>":
		c.create(x)
	case "<>":
		c.firstClass(x)
	default:
		c.raise(value.ErrProcedure, "unknown unary operator "+x.Op)
	}
}

// call compiles f(args…). When the callee is a statically known procedure
// the facts engine proved pure with at most one yield, the site compiles to
// OpCall1 — no choice point, no resume bookkeeping (the PR-6 facts feeding
// the PR-7 call protocol).
func (c *compiler) call(x *ast.Call) {
	direct := false
	if id, ok := x.Fun.(*ast.Ident); ok && c.env.CallDirect != nil {
		if _, isSlot := c.slotIdx[id.Name]; !isSlot {
			if _, isGlobal := c.env.LookupGlobal(id.Name); isGlobal && c.env.CallDirect(id.Name) {
				direct = true
			}
		}
	}
	c.expr(x.Fun)
	for _, a := range x.Args {
		c.expr(a)
	}
	op := OpCall
	if direct {
		op = OpCall1
	}
	c.emit(op, int32(len(x.Args)), c.newAux(), 0)
}

// nativeCall compiles recv::name(args…): registry lookup at compile time,
// receiver (when present) passed as the first argument. A name not yet
// registered raises where the call stands, as the tree walk does when it
// builds the call; registering it recompiles the procedure.
func (c *compiler) nativeCall(x *ast.NativeCall) {
	if c.env.Native == nil {
		c.unsupported(x, "native ::"+x.Name)
	}
	native, ok := c.env.Native(x.Name)
	if !ok {
		c.raise(value.ErrProcedure, "unregistered native ::"+x.Name+at(x))
		return
	}
	n := len(x.Args)
	if x.Recv != nil {
		c.expr(x.Recv)
		n++
	}
	for _, a := range x.Args {
		c.expr(a)
	}
	c.emit(OpCallNative, int32(n), c.newAux(), c.constant(native, "native:"+x.Name))
}

// assign compiles target := rhs. A reference target is resolved before the
// right side runs (a failing subscript must skip rhs's effects), matching
// Assign's operand order: target outer, source inner.
func (c *compiler) assign(target ast.Node, rhs ast.Node) {
	t := c.target(target)
	c.expr(rhs)
	c.store(target, t)
}

// store stores the top of stack into target operand t of target n.
func (c *compiler) store(n ast.Node, t int32) {
	switch kind, i := SplitTarget(t); kind {
	case TargetSlot:
		c.storeSlot(i)
	case TargetGlobal:
		c.emit(OpStoreGlobal, i, 0, 0)
	case TargetRef:
		c.emit(OpStoreVar, 0, 0, 0)
	default:
		c.cannotAssign(n, i)
	}
}

// targetConst is the target kind of a name that resolves to a builtin or
// native, Consts[index]: the compiler raises in place of the store.
const targetConst = 3

// constTarget returns the constant a name target resolves to, without
// resolving it otherwise: a local the name defaults to keeps its place
// in slot order.
func (c *compiler) constTarget(n ast.Node) (int32, bool) {
	id, ok := n.(*ast.Ident)
	if !ok || c.bound(id.Name) {
		return 0, false
	}
	if _, ok := c.env.LookupConst(id.Name); !ok {
		return 0, false
	}
	_, i := c.resolve(n, id.Name, false)
	return i, true
}

// cannotAssign raises, where a store into the builtin or native Consts[i]
// that n names would be, what the tree walk's store raises.
func (c *compiler) cannotAssign(n ast.Node, i int32) {
	kind := "builtin "
	if _, ok := c.code.Consts[i].(*value.Native); ok {
		kind = "native "
	}
	name, _ := nameOf(n)
	c.raise(value.ErrProcedure, "cannot assign to "+kind+name)
	c.depth-- // in place of the store, which replaces the value stored
}

// target compiles an assignment target to a target operand: a named
// variable resolves to its slot or global cell and emits nothing, and so
// does a builtin (targetConst); any other target pushes the references it
// generates (see ref).
func (c *compiler) target(n ast.Node) int32 {
	if i, ok := c.constTarget(n); ok {
		return Target(targetConst, i)
	}
	switch t := n.(type) {
	case *ast.Ident, *ast.TmpRef:
		name, tmp := nameOf(t)
		kind, i := c.resolve(t, name, tmp)
		if kind == resGlobal {
			return Target(TargetGlobal, i)
		}
		if !c.boxedSlot(i) {
			return Target(TargetSlot, i)
		}
	}
	c.ref(n)
	return Target(TargetRef, 0)
}

// ref compiles n in reference position, pushing per result the variable
// the tree walk's lvalueGen generates: a cell for a name, a subscript or
// field reference, &subject or &pos, an element reference for !x, and
// the references of either side of | or of a product's last term. Any
// other form pushes its values, and the store raises "variable expected"
// on them as the tree walk's does.
func (c *compiler) ref(n ast.Node) {
	switch t := n.(type) {
	case *ast.Ident, *ast.TmpRef:
		name, tmp := nameOf(t)
		switch kind, i := c.resolve(t, name, tmp); {
		case kind == resGlobal:
			c.emit(OpGlobalVar, i, 0, 0)
		case kind == resConst:
			c.cannotAssign(n, i)
			c.depth++
		case c.boxedSlot(i):
			c.emit(OpBoxVar, i, 0, 0)
		default:
			c.unsupported(n, "reference to an unboxed slot "+name) // boxNames missed it
		}
	case *ast.Index:
		c.expr(t.X)
		c.expr(t.I)
		c.emit(OpIndex, 0, 0, 0)
	case *ast.Field:
		c.expr(t.X)
		c.emit(OpField, c.constant(value.String(t.Name), "str:"+t.Name), 0, 0)
	case *ast.Unary:
		switch t.Op {
		case "!":
			c.expr(t.X)
			c.emit(OpBang, 1, c.newAux(), 0)
		case "|":
			c.repeat(t.X, c.ref)
		default:
			c.expr(n)
		}
	case *ast.Binary:
		_, ident := t.L.(*ast.Ident)
		_, tmp := t.L.(*ast.TmpRef)
		switch {
		case t.Op == "|":
			c.alternate(t.L, t.R, c.ref)
		case t.Op == "&":
			c.product([]ast.Node{t.L, t.R}, c.ref)
		case assigns(t.Op) && (ident || tmp):
			// An assignment produces its target (the tree walk's AssignTo):
			// assign, then push the name's reference.
			c.expr(n)
			c.emit(OpPop, 0, 0, 0)
			c.ref(t.L)
		default:
			c.expr(n)
		}
	case *ast.FlatProduct:
		c.product(t.Terms, c.ref)
	default:
		c.expr(n)
	}
}

// product compiles the terms of e1 & … & en, the last one by last. It is
// plain sequencing: backtracking is global, so failure after a later term
// naturally resumes the nearest earlier choice point — exactly the
// product search order.
func (c *compiler) product(terms []ast.Node, last func(ast.Node)) {
	if len(terms) == 0 {
		c.emit(OpNull, 0, 0, 0)
		return
	}
	for _, t := range terms[:len(terms)-1] {
		c.expr(t)
		c.emit(OpPop, 0, 0, 0)
	}
	last(terms[len(terms)-1])
}

// alternate compiles l | r, each side by side.
func (c *compiler) alternate(l, r ast.Node, side func(ast.Node)) {
	d := c.depth
	fork := c.emit(OpFork, -1, 0, 0)
	side(l)
	end := c.emit(OpJump, -1, 0, 0)
	c.patchA(fork)
	c.depth = d
	side(r)
	c.patchA(end)
}

// nameOf returns the name of an Ident or TmpRef and whether it is a
// temporary.
func nameOf(n ast.Node) (name string, tmp bool) {
	if id, ok := n.(*ast.Ident); ok {
		return id.Name, false
	}
	return n.(*ast.TmpRef).Name, true
}

// augAssign compiles target op:= rhs, reporting false when op is no
// operator: the target operand, the right side, then one read-modify-write
// that reads the target when the operation applies — per source value, as
// core.AugAssignTo does. On a builtin the operation applies and the store
// raises.
func (c *compiler) augAssign(x *ast.Binary) bool {
	base, ok := strings.CutSuffix(x.Op, ":=")
	ai, isArith := arithIndex[base]
	ci, isCmp := cmpIndex[base]
	if !ok || !isArith && !isCmp {
		return false
	}
	op, opAug, idx := OpArith, OpAug, int32(ai)
	if isCmp {
		op, opAug, idx = OpCmp, OpCmpAug, int32(ci)
	}
	if i, ok := c.constTarget(x.L); ok {
		c.emit(OpConst, i, 0, 0)
		c.expr(x.R)
		c.emit(op, idx, 0, 0)
		c.cannotAssign(x.L, i)
		return true
	}
	t := c.target(x.L)
	c.expr(x.R)
	c.emit(opAug, t, 0, idx)
	return true
}

// bounded compiles e cut to its first result: a mark, e and the cut. It
// returns the mark's site, for the caller to point where failure goes.
func (c *compiler) bounded(e ast.Node) int {
	aux := c.newAux()
	m := c.emit(OpMark, -1, aux, 0)
	c.expr(e)
	c.emit(OpCut, 0, aux, 0)
	return m
}

// boundedDiscard compiles s as a bounded, discarded evaluation: at most one
// result, failure ignored — the kernel's sequence-term discipline.
func (c *compiler) boundedDiscard(s ast.Node) {
	d := c.depth
	m := c.bounded(s)
	c.emit(OpPop, 0, 0, 0)
	c.patchA(m)
	c.depth = d
}

// varDecl compiles local declarations in expression position: each
// initializer is evaluated boundedly; a failing (or absent) initializer
// leaves &null. Only a procedure's own statements declare statics, so
// here a static is the plain local the tree walk makes of it. A name used
// above the declaration keeps what it resolved to there; from here on it
// is the local (declStore), as in the tree walk, which resolves names in
// the order it builds them.
func (c *compiler) varDecl(x *ast.VarDecl) {
	for i, name := range x.Names {
		d := c.depth
		if x.Inits[i] == nil {
			c.emit(OpNull, 0, 0, 0)
			c.declStore(x, name)
			c.emit(OpPop, 0, 0, 0)
			continue
		}
		m := c.bounded(x.Inits[i])
		c.declStore(x, name)
		c.emit(OpPop, 0, 0, 0)
		done := c.emit(OpJump, -1, 0, 0)
		c.patchA(m)
		c.depth = d
		c.emit(OpNull, 0, 0, 0)
		c.declStore(x, name)
		c.emit(OpPop, 0, 0, 0)
		c.patchA(done)
	}
}

// declStore stores the top of stack into the declared name: a slot inside
// procedures, a (defined-on-the-spot) global at top level.
func (c *compiler) declStore(n ast.Node, name string) {
	if c.procMode {
		c.storeSlot(c.slot(name))
		return
	}
	if i, ok := c.slotIdx[name]; ok {
		c.storeSlot(int32(i))
		return
	}
	if cell, ok := c.env.LookupGlobal(name); ok {
		c.emit(OpStoreGlobal, c.global(name, cell), 0, 0)
		return
	}
	if c.env.DefineGlobal == nil {
		c.unsupported(n, "declaration outside a procedure")
	}
	cell := c.env.DefineGlobal(name)
	c.emit(OpStoreGlobal, c.global(name, cell), 0, 0)
}

// ifExpr compiles if/then/else: the condition is bounded, and the chosen
// branch supplies the result sequence — or, with statement set, runs as a
// statement, and a false condition with no else completes the statement
// instead of failing.
func (c *compiler) ifExpr(x *ast.If, statement bool) {
	branch := c.branch(statement)
	d := c.depth
	m := c.bounded(x.Cond)
	c.emit(OpPop, 0, 0, 0)
	branch(x.Then)
	end := c.emit(OpJump, -1, 0, 0)
	c.patchA(m)
	c.depth = d
	switch {
	case x.Else != nil:
		branch(x.Else)
	case !statement:
		c.emit(OpFail, 0, 0, 0)
		c.depth++
	}
	c.patchA(end)
}

// caseExpr compiles a case expression, or with statement set a case
// statement. The subject is evaluated boundedly and pinned in a hidden
// slot; each selector's results are searched for === equivalence (a
// mismatch fails back into the selector, a spent selector fails over to
// the next clause), and a match commits to its branch. A failed subject,
// or one no clause matches, fails the expression and completes the
// statement.
func (c *compiler) caseExpr(x *ast.Case, statement bool) {
	branch := c.branch(statement)
	d := c.depth
	subjFail := c.bounded(x.Subject)
	subj := c.hiddenSlot("case")
	c.emit(OpBindSlot, subj, 0, 0)
	c.emit(OpPop, 0, 0, 0)

	var deflt ast.Node
	hasDefault := false
	var bodies []int // Jump sites into clause bodies
	var bodyExprs []ast.Node
	for _, cl := range x.Clauses {
		if cl.Sel == nil {
			deflt, hasDefault = cl.Body, true
			continue
		}
		aux := c.newAux()
		m := c.emit(OpMark, -1, aux, 0)
		c.expr(cl.Sel)
		c.emit(OpCaseEq, subj, 0, 0)
		c.emit(OpCut, 0, aux, 0)
		bodies = append(bodies, c.emit(OpJump, -1, 0, 0))
		bodyExprs = append(bodyExprs, cl.Body)
		c.patchA(m)
		c.depth = d
	}
	var ends []int
	unmatched := func() {
		if statement {
			ends = append(ends, c.emit(OpJump, -1, 0, 0))
		} else {
			c.emit(OpFail, 0, 0, 0)
		}
	}
	if hasDefault {
		branch(deflt)
		ends = append(ends, c.emit(OpJump, -1, 0, 0))
	} else {
		unmatched()
	}
	c.patchA(subjFail)
	c.depth = d
	unmatched()
	for i, site := range bodies {
		c.patchA(site)
		c.depth = d
		branch(bodyExprs[i])
		ends = append(ends, c.emit(OpJump, -1, 0, 0))
	}
	for _, site := range ends {
		c.patchA(site)
	}
	c.depth = d
	if !statement {
		c.depth++
	}
}

// branch returns how a branch of a conditional compiles: as an
// expression, or in statement position as a statement.
func (c *compiler) branch(statement bool) func(ast.Node) {
	if statement {
		return c.stmt
	}
	return c.expr
}

// Loop kinds for the shared loop compiler.
type loopKind int

const (
	loopWhile loopKind = iota
	loopEvery
	loopRepeat
)

// loopCompile is the shared loop lowering; statement reports statement
// position (the body compiles as a statement, break outcomes are bounded
// and discarded, and a finished loop falls through instead of failing).
func (c *compiler) loopCompile(kind loopKind, head, body ast.Node, until, statement bool) {
	d := c.depth
	ctx := &loopCtx{entryDepth: d, statement: statement}
	c.loops = append(c.loops, ctx)
	defer func() { c.loops = c.loops[:len(c.loops)-1] }()

	auxHead := c.newAux()
	auxBody := c.newAux()
	ctx.aux = auxHead
	ctx.nextAux = auxBody

	var exits []int // sites to patch to the loop exit
	top := int(c.here())
	var headSite int
	switch kind {
	case loopWhile:
		headSite = c.emit(OpMark, -1, auxHead, 0)
		c.expr(head)
		c.emit(OpCut, 0, auxHead, 0)
		c.emit(OpPop, 0, 0, 0)
		if until {
			// Condition success exits an until loop…
			exits = append(exits, c.emit(OpJump, -1, 0, 0))
			// …and condition failure runs the body.
			c.patchA(headSite)
			c.depth = d
			headSite = -1
		}
	case loopEvery:
		headSite = c.emit(OpMark, -1, auxHead, 0)
		c.expr(head)
		c.emit(OpPop, 0, 0, 0)
	case loopRepeat:
		headSite = -1
		// repeat cuts/continues on the body cell alone.
		ctx.aux = auxBody
	}

	// Body: bounded in expression loops, structural in statement loops.
	// With no body there is nothing to bound and no `next` to anchor.
	if body != nil {
		ctx.inBody = true
		bodyMark := c.emit(OpMark, -1, auxBody, 0)
		if statement {
			c.stmt(body)
			c.emit(OpCut, 0, auxBody, 0)
		} else {
			c.expr(body)
			c.emit(OpCut, 0, auxBody, 0)
			c.emit(OpPop, 0, 0, 0)
		}
		ctx.inBody = false
		// Body failure lands at the continue point too (the body is
		// bounded — its failure is indistinguishable from completion).
		c.patchA(bodyMark)
		c.depth = d
	}
	cont := int(c.here())
	switch kind {
	case loopWhile, loopRepeat:
		c.emit(OpJump, int32(top), 0, 0)
	case loopEvery:
		c.emit(OpFail, 0, 0, 0) // resume the generator
	}
	for _, site := range ctx.nexts {
		c.code.Instrs[site].A = int32(cont)
	}

	// Loop exit: the head is spent (condition failed / generator dry).
	if headSite >= 0 {
		c.patchA(headSite)
	}
	for _, site := range exits {
		c.patchA(site)
	}
	c.depth = d
	if !statement {
		// The loop expression itself fails; only break reaches the end.
		c.emit(OpFail, 0, 0, 0)
		c.depth = d + 1
	}
	for _, site := range ctx.breaks {
		c.patchA(site)
	}
}

// breakFrom compiles break [e] against the innermost loop: discard the
// loop's choice points and operand-stack growth, then deliver the outcome —
// delegated generatively in expression loops, bounded and discarded in
// statement loops.
func (c *compiler) breakFrom(e ast.Node) {
	if len(c.loops) == 0 {
		c.raise(value.ErrProcedure, "break outside a loop")
		return
	}
	ctx := c.loops[len(c.loops)-1]
	c.emit(OpCut, 0, ctx.aux, 0)
	c.leaveScans(len(c.loops)-1, LeaveForGood)
	if !ctx.statement && e == nil {
		// Bare break: the loop expression's outcome is Empty.
		c.emit(OpFail, 0, 0, 0)
		return
	}
	if k := c.depth - ctx.entryDepth; k > 0 {
		c.emit(OpPopN, int32(k), 0, 0)
	}
	if ctx.statement {
		if e != nil {
			c.boundedDiscard(e)
		}
	} else {
		c.expr(e)
	}
	ctx.breaks = append(ctx.breaks, c.emit(OpJump, -1, 0, 0))
}

// nextFrom compiles next: abandon the current body iteration of the
// nearest loop whose body we are in, discarding everything in between.
func (c *compiler) nextFrom() {
	var ctx *loopCtx
	loop := len(c.loops) - 1
	for ; loop >= 0; loop-- {
		if c.loops[loop].inBody {
			ctx = c.loops[loop]
			break
		}
	}
	if ctx == nil {
		c.raise(value.ErrProcedure, "next outside a loop body")
		return
	}
	c.emit(OpCut, 0, ctx.nextAux, 0)
	c.leaveScans(loop, LeaveForGood)
	if k := c.depth - ctx.entryDepth; k > 0 {
		c.emit(OpPopN, int32(k), 0, 0)
	}
	ctx.nexts = append(ctx.nexts, c.emit(OpJump, -1, 0, 0))
}
