package analyze

import (
	"sort"
	"sync"

	"junicon/internal/ast"
)

// effects.go is the interprocedural fact computation: a fixpoint over the
// call graph that assigns every procedure an effect summary and a
// yield-count bound, then a caching pass that records the facts of the
// nodes a consumer asks about by identity: the body of every |> (its
// provisioning, JV012) and the left operand of every limit (JV014). Both
// are walks of expr, which computes a node's facts as an expression and
// its share of the enclosing procedure's results in one record.
// Soundness discipline: unknown callees and host natives are the top of
// the lattice; recursive generator procedures are pinned to unbounded
// yields before the fixpoint runs, so exact bounds never under-approximate
// a sequence the runtime would provision a queue for.
//
// The computation is incremental in the unit programs arrive in
// (ExtendDecls, one LoadProgram batch at a time): a summary depends only
// on the procedure's own body and its callees' summaries, and a procedure
// already in the table cannot call one that did not exist when its edges
// were resolved — unless a batch defines a name an earlier call site left
// unresolved, redefines a procedure, or declares global a name an earlier
// procedure took for its own by assigning it. Only then are the tables
// thrown away and recomputed over everything loaded; otherwise the
// fixpoint runs over the batch alone, against summaries that are already
// final, and yields the tables one run over the whole program would.

// factsComp carries one fact-computation run.
type factsComp struct {
	*Facts
	// cache is nil during the fixpoint; the caching pass swaps in the
	// node cache that record fills.
	cache map[ast.Node]GenFacts
}

// ExtendDecls analyzes one more batch of top-level nodes — procedure,
// method, record and global declarations plus top-level statements, in
// program order — against everything the receiver has analyzed before.
// Afterwards the procedure table and node cache equal what ProgramFacts
// computes for all the declarations so far followed by this batch's
// statements. Statements are cached like ExtendExpr's expressions: until
// the next ExtendDecls or ExtendExpr call.
func (f *Facts) ExtendDecls(batch []ast.Node) {
	var stmts []ast.Node
	fresh := len(f.decls)
	rebound := false
	add := func(p *ast.ProcDecl) {
		if f.cg.procs[p.Name] != nil || f.cg.late[p.Name] {
			rebound = true
		}
		f.cg.procs[p.Name] = p
		f.decls = append(f.decls, p)
	}
	// A declared global is never a local, whichever arrives first: a
	// procedure analyzed before the declaration that counted the name
	// among its locals gets a fresh table and the tables a re-run.
	declare := func(names []string) {
		for _, name := range names {
			if f.globals[name] {
				continue
			}
			f.globals[name] = true
			for p, sc := range f.ctx {
				if sc.has(name, symLocal) {
					delete(f.ctx, p)
					rebound = true
				}
			}
		}
	}
	for _, d := range batch {
		switch x := d.(type) {
		case *ast.ProcDecl:
			add(x)
		case *ast.ClassDecl:
			declare(x.Fields) // flattened into globals at load
			for _, m := range x.Methods {
				add(m)
			}
		case *ast.GlobalDecl:
			declare(x.Names)
		case *ast.RecordDecl:
			// no code of its own
		default:
			stmts = append(stmts, d)
		}
	}
	if rebound {
		// A name analyzed earlier now resolves differently (late binding,
		// REPL redefinition, a global declared after its writer): start
		// over, keeping only the winning declaration of each name and the
		// tables that still hold.
		f.cg = newCallGraph()
		f.procs = map[string]*ProcFacts{}
		f.nodes = map[ast.Node]GenFacts{}
		for _, p := range f.decls {
			f.cg.procs[p.Name] = p
		}
		live := f.decls[:0]
		for _, p := range f.decls {
			if f.cg.procs[p.Name] == p {
				live = append(live, p)
			} else {
				delete(f.ctx, p)
			}
		}
		f.decls, fresh = live, 0
	}
	fc := &factsComp{Facts: f}
	fc.solve(f.decls[fresh:])
	fc.cacheStatements(stmts)
}

// ExtendExpr computes and caches facts for one more top-level expression
// against the already-computed interprocedural tables — the incremental
// path for the REPL and EvalGen: declarations are analyzed once at load
// time; each evaluated expression then extends the node cache without
// re-running the whole-program fixpoint.
func (f *Facts) ExtendExpr(n ast.Node) {
	if f == nil || n == nil {
		return
	}
	fc := &factsComp{Facts: f}
	fc.cacheStatements([]ast.Node{n})
}

// solve summarizes the given procedures — already in the call graph's
// procs, their callees either among them or summarized earlier — and
// caches the facts their bodies will be asked for.
func (fc *factsComp) solve(decls []*ast.ProcDecl) {
	if len(decls) == 0 {
		return
	}
	names := make([]string, len(decls))
	for i, p := range decls {
		names[i] = p.Name
		if fc.ctx[p] == nil { // a re-run finds them in place
			fc.ctx[p] = newScope(p, fc.globals, fc.vet)
		}
	}
	sort.Strings(names)
	// Edges once every procedure of the batch is in procs, so mutual
	// recursion inside a batch resolves.
	for _, p := range decls {
		fc.cg.addCalls(p, fc.ctx[p])
	}
	rec := fc.cg.recursiveAmong(names)

	// Bottom-initialize, pinning recursive procedures to their sound
	// summaries: generator recursion (any suspend in the body) yields
	// unboundedly; return-only recursion yields at most once.
	for _, p := range decls {
		pf := &ProcFacts{Name: p.Name, GenFacts: GenFacts{Yields: boundNone}}
		if rec[p.Name] {
			pf.Recursive = true
			if fc.ctx[p].suspends {
				pf.Yields = boundUnbounded
			} else {
				pf.Yields = boundOpt
			}
		}
		fc.procs[p.Name] = pf
	}

	// Fixpoint: effects join monotonically; yields of non-recursive
	// procedures settle once their callees have (DAG depth bounds the
	// iteration count, +1 to detect stability).
	for iter := 0; iter <= len(names)+1; iter++ {
		changed := false
		for _, name := range names {
			old := *fc.procs[name]
			got := fc.summarize(name)
			next := old
			next.Effects |= got.Effects
			if !rec[name] { // a recursive procedure's yields stay pinned
				next.Yields = got.Yields
			}
			if next.Effects != old.Effects || next.Yields != old.Yields {
				*fc.procs[name] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Caching pass: one more walk of each body, against the final table.
	fc.cache = fc.nodes
	for _, p := range decls {
		fc.expr(p.Body, fc.ctx[p])
	}
	fc.cache = nil
}

// topLevel is the table the facts of top-level statements and standalone
// expressions read: they run in the global scope, so nothing is local.
var topLevel = &scope{}

// cacheStatements records the facts of top-level statements in the
// transient cache, replacing its previous contents.
func (fc *factsComp) cacheStatements(stmts []ast.Node) {
	fc.exprNodes = make(map[ast.Node]GenFacts)
	fc.cache = fc.exprNodes
	for _, s := range stmts {
		fc.expr(s, topLevel)
	}
	fc.cache = nil
}

// summarize computes one procedure's summary from the current table: the
// body's effects and the results its statements suspend and return.
func (fc *factsComp) summarize(name string) GenFacts {
	decl := fc.cg.procs[name]
	body := fc.expr(decl.Body, fc.ctx[decl])
	eff := body.Effects
	if fc.cg.unknown[name] {
		eff |= EffUnknown
	}
	// Control transfers inside the body resolve inside the invocation;
	// they are not effects of calling the procedure.
	eff &^= EffControl
	return GenFacts{Effects: eff, Yields: body.sus}
}

// record caches, on the caching pass, the facts of a node a consumer
// looks up by identity (Facts.At).
func (fc *factsComp) record(n ast.Node, g fact) fact {
	if fc.cache != nil && n != nil {
		fc.cache[n] = g.GenFacts
	}
	return g
}

// ---------- builtin facts ----------

// builtinFacts maps builtin names to their summaries. Unlisted builtins
// are assumed pure single-valued converters that may fail — everything in
// the kernel library that is not listed here fits that shape.
var builtinFacts = sync.OnceValue(func() map[string]GenFacts {
	io1 := GenFacts{Effects: EffIO, Yields: boundOne}
	heap1 := GenFacts{Effects: EffHeap, Yields: boundOne}
	heapOpt := GenFacts{Effects: EffHeap, Yields: boundOpt}
	pure1 := GenFacts{Yields: boundOne}
	pureOpt := GenFacts{Yields: boundOpt}
	pureFin := GenFacts{Yields: boundFinite}
	m := map[string]GenFacts{
		// I/O
		"write": io1, "writes": io1,
		"stop": {Effects: EffIO, Yields: boundNone},
		// Structure mutators
		"put": heap1, "push": heap1, "insert": heap1, "delete": heap1,
		"get": heapOpt, "pop": heapOpt, "pull": heapOpt,
		// Pure constructors / inspectors
		"image": pure1, "type": pure1, "copy": pure1, "list": pure1,
		"table": pure1, "set": pure1, "sort": pure1, "reverse": pure1,
		"repl": pure1, "left": pure1, "right": pure1, "center": pure1,
		"trim": pure1, "map": pure1, "ord": pure1, "char": pure1,
		"abs": pure1,
		// Converters and tests (fail on mismatch)
		"numeric": pureOpt, "integer": pureOpt, "real": pureOpt,
		"string": pureOpt, "cset": pureOpt, "proc": pureOpt,
		"member": pureOpt, "any": pureOpt, "many": pureOpt,
		"match": pureOpt,
		// Generators
		"find": pureFin, "upto": pureFin, "bal": pureFin, "key": pureFin,
		"seq": {Yields: Bound{Min: 0, Max: BoundUnbounded}},
		// String scanning: movement mutates the scan environment
		"tab":  {Effects: EffHeap, Yields: boundOpt},
		"move": {Effects: EffHeap, Yields: boundOpt},
		"pos":  pureOpt,
	}
	// The *At variants share their base function's facts.
	for _, name := range []string{"find", "upto", "many", "any", "match"} {
		m[name+"At"] = m[name]
	}
	m["tabMatch"] = GenFacts{Effects: EffHeap, Yields: boundOpt}
	return m
})

// ---------- expression facts ----------

// fact is what one walk of a node computes: its facts as an expression
// and, as a statement of a procedure body, its share of the procedure's
// own results.
type fact struct {
	GenFacts
	sus  Bound // results it suspends or returns to the procedure's caller
	ends bool  // it unconditionally ends the invocation
}

func gf(e Effects, y Bound) fact { return fact{GenFacts: GenFacts{e, y}} }

// expr computes (and on the caching pass caches) the facts of a node.
// Only the statement forms — blocks, conditionals, loops, case, initial,
// suspend, return and fail — have a share of the procedure's results, and
// only through their statement parts.
func (fc *factsComp) expr(n ast.Node, sc *scope) fact {
	switch x := n.(type) {
	case nil:
		return gf(EffPure, boundNone)

	case *ast.IntLit, *ast.RealLit, *ast.StrLit, *ast.CsetLit:
		return gf(EffPure, boundOne)

	case *ast.Keyword:
		if x.Name == "fail" {
			return gf(EffPure, boundNone)
		}
		return gf(EffPure, boundOne)

	case *ast.Ident:
		// Any non-local name — global, builtin, host-known or auto-created
		// at first use — reads shared state, and so does a static: it
		// holds what an earlier invocation left there.
		if sc.syms[x.Name]&(symLocal|symStatic) != symLocal {
			return gf(EffReadsGlobals, boundOne)
		}
		return gf(EffPure, boundOne)
	case *ast.TmpRef:
		// Normalization temporaries are bound by their BindIn term within
		// the enclosing FlatProduct — locals by construction, never globals.
		return gf(EffPure, boundOne)

	case *ast.ListLit:
		g := gf(EffPure, boundOne)
		for _, e := range x.Elems {
			ef := fc.expr(e, sc)
			g.Effects |= ef.Effects
			if !ef.Yields.CannotFail() {
				g.Yields.Min = 0
			}
		}
		return g

	case *ast.Binary:
		return fc.binaryFacts(x, sc)

	case *ast.Unary:
		return fc.unaryFacts(x, sc)

	case *ast.ToBy:
		lo := fc.expr(x.Lo, sc)
		hi := fc.expr(x.Hi, sc)
		g := gf(lo.Effects|hi.Effects, boundNone)
		operands := lo.Yields.Mul(hi.Yields)
		if x.By != nil {
			by := fc.expr(x.By, sc)
			g.Effects |= by.Effects
			operands = operands.Mul(by.Yields)
		}
		g.Yields = operands.Mul(rangeCount(x))
		return g

	case *ast.Call:
		return fc.callFacts(x, sc)

	case *ast.NativeCall:
		// A host native is the top of the effect lattice, which blocks
		// fusion across it.
		g := gf(EffUnknown, boundOpt)
		if x.Recv != nil {
			rf := fc.expr(x.Recv, sc)
			g.Effects |= rf.Effects
			g.Yields = rf.Yields.Mul(g.Yields)
		}
		for _, a := range x.Args {
			af := fc.expr(a, sc)
			g.Effects |= af.Effects
			g.Yields = af.Yields.Mul(g.Yields)
		}
		return g

	case *ast.Index:
		xf := fc.expr(x.X, sc)
		idx := fc.expr(x.I, sc)
		b := xf.Yields.Mul(idx.Yields)
		b.Min = 0 // subscripts fail out of range
		return gf(xf.Effects|idx.Effects, b)

	case *ast.Slice:
		g := fc.joinAll(sc, x.X, x.I, x.J)
		g.Yields.Min = 0
		return g

	case *ast.Field:
		xf := fc.expr(x.X, sc)
		b := xf.Yields
		b.Min = 0
		return gf(xf.Effects, b)

	case *ast.If:
		cond := fc.expr(x.Cond, sc)
		then := fc.expr(x.Then, sc)
		els := fc.expr(x.Else, sc) // nil → {0,0}
		g := gf(cond.Effects|then.Effects|els.Effects, then.Yields.Join(els.Yields))
		if x.Else == nil || !cond.Yields.CannotFail() {
			g.Yields.Min = 0
		}
		g.sus = then.sus.Join(els.sus)
		if x.Else == nil || !cannotFail(x.Cond) {
			g.sus.Min = 0
		} else {
			g.ends = then.ends && els.ends
		}
		return g

	case *ast.While:
		cond, body := fc.expr(x.Cond, sc), fc.expr(x.Body, sc)
		return loop(cond.Effects|body.Effects, body)
	case *ast.Repeat:
		body := fc.expr(x.Body, sc)
		return loop(body.Effects, body)
	case *ast.Every:
		src, per := fact{}, boundNone
		if sus, ok := x.E.(*ast.Suspend); ok {
			// `every suspend e` merges into per-result suspension.
			e, b := fc.expr(sus.E, sc), fc.expr(sus.Body, sc)
			src, per = gf(e.Effects|b.Effects|EffControl, e.Yields), exactly(1)
		} else {
			src = fc.expr(x.E, sc)
		}
		body := fc.expr(x.Body, sc)
		g := gf(src.Effects|body.Effects, boundNone) // loops fail as expressions
		g.sus = src.Yields.Mul(per.Add(body.sus))
		g.sus.Min = 0
		return g

	case *ast.Case:
		g := gf(fc.expr(x.Subject, sc).Effects, boundNone)
		for _, c := range x.Clauses {
			if c.Sel != nil {
				g.Effects |= fc.expr(c.Sel, sc).Effects
			}
			cf := fc.expr(c.Body, sc)
			g.Effects |= cf.Effects
			g.Yields = g.Yields.Join(cf.Yields)
			g.sus = g.sus.Join(cf.sus)
		}
		g.Yields.Min = 0
		g.sus.Min = 0
		return g

	case *ast.Block:
		if len(x.Stmts) == 0 {
			return gf(EffPure, boundOne)
		}
		var g fact
		for _, s := range x.Stmts {
			sf := fc.expr(s, sc)
			g.Effects |= sf.Effects
			// Bounded failures of leading statements are discarded; the
			// block's sequence is the last statement's.
			g.Yields = sf.Yields
			if !g.ends {
				g.sus, g.ends = g.sus.Add(sf.sus), sf.ends
			}
		}
		return g

	case *ast.VarDecl:
		g := gf(EffPure, boundOne)
		for _, init := range x.Inits {
			if init != nil {
				g.Effects |= fc.expr(init, sc).Effects
			}
		}
		return g

	case *ast.Initial:
		body := fc.expr(x.Body, sc)
		g := gf(body.Effects, boundOne)
		g.sus = body.sus
		g.sus.Min = 0
		return g

	case *ast.BindIn:
		return fact{GenFacts: fc.expr(x.E, sc).GenFacts}

	case *ast.FlatProduct:
		g := gf(EffPure, boundOne)
		for _, t := range x.Terms {
			tf := fc.expr(t, sc)
			g.Effects |= tf.Effects
			g.Yields = g.Yields.Mul(tf.Yields)
		}
		return g

	case *ast.Break:
		return gf(fc.expr(x.E, sc).Effects|EffControl, boundNone)
	case *ast.NextStmt:
		return gf(EffControl, boundNone)
	case *ast.Fail:
		g := gf(EffControl, boundNone)
		g.ends = true
		return g
	case *ast.Return:
		g := gf(fc.expr(x.E, sc).Effects|EffControl, boundOpt)
		g.sus, g.ends = boundOpt, true
		if x.E == nil || cannotFail(x.E) {
			g.sus = boundOne
		}
		return g
	case *ast.Suspend:
		e, body := fc.expr(x.E, sc), fc.expr(x.Body, sc)
		g := gf(e.Effects|body.Effects|EffControl, boundNone.Join(e.Yields).Join(body.Yields))
		g.sus = e.Yields
		if x.Body != nil {
			g.sus = g.sus.Add(g.sus.Mul(body.sus))
		}
		return g
	}
	// Unknown node kind: top.
	return gf(EffUnknown, boundUnbounded)
}

// loop is the fact of a while or repeat loop: it fails as an expression,
// and a body that suspends at all may suspend without bound.
func loop(eff Effects, body fact) fact {
	g := gf(eff, boundNone)
	if body.sus.Max != 0 {
		g.sus = boundUnbounded
	}
	return g
}

// joinAll joins the facts of several subexpressions (nil skipped).
func (fc *factsComp) joinAll(sc *scope, ns ...ast.Node) fact {
	g := gf(EffPure, boundNone)
	for _, n := range ns {
		if n == nil {
			continue
		}
		nf := fc.expr(n, sc)
		g.Effects |= nf.Effects
		g.Yields = g.Yields.Join(nf.Yields)
	}
	return g
}

// writeEffect classifies an assignment target.
func writeEffect(target ast.Node, sc *scope) Effects {
	switch t := target.(type) {
	case *ast.Ident:
		// A static outlives the invocation: writing one is visible to the
		// next call, exactly like writing a global.
		if sc.syms[t.Name]&(symLocal|symStatic) == symLocal {
			return EffPure
		}
		return EffWritesGlobals
	case *ast.TmpRef:
		return EffPure
	case *ast.Index, *ast.Slice, *ast.Field, *ast.Keyword:
		return EffHeap
	case *ast.Unary:
		if t.Op == "!" {
			return EffHeap
		}
	}
	// Computed target: could denote anything.
	return EffUnknown
}

func (fc *factsComp) binaryFacts(x *ast.Binary, sc *scope) fact {
	l := fc.expr(x.L, sc)
	r := fc.expr(x.R, sc)
	eff := l.Effects | r.Effects
	switch x.Op {
	case "&":
		return gf(eff, l.Yields.Mul(r.Yields))
	case "|":
		return gf(eff, l.Yields.Add(r.Yields))
	case "\\":
		b := fc.record(x.L, l).Yields // JV014 asks what the limit cuts
		if lim, ok := intConst(x.R); ok {
			if lim < 0 {
				lim = 0
			}
			capped := int(lim)
			if int64(capped) != lim {
				capped = maxExact + 1 // enormous literal: treat as finite
			}
			b = b.Cap(capped)
		} else {
			b.Min = 0
		}
		return gf(eff, b)
	case ":=", "<-":
		eff |= writeEffect(x.L, sc)
		b := r.Yields
		if x.Op == "<-" {
			b.Min = 0 // reversible assignment restores and fails on backtrack
			eff |= EffUndo
		}
		return gf(eff, b)
	case ":=:", "<->":
		eff |= writeEffect(x.L, sc) | writeEffect(x.R, sc)
		if x.Op == "<->" {
			eff |= EffUndo
		}
		return gf(eff, boundOpt)
	case "?":
		// Scanning: the body runs against a swapped scan environment.
		b := r.Yields
		b.Min = 0
		return gf(eff|EffHeap, b)
	}
	if isAssignOp(x.Op) { // augmented assignment op:=
		eff |= writeEffect(x.L, sc)
		b := l.Yields.Mul(r.Yields)
		b.Min = 0
		return gf(eff, b)
	}
	if isValueOp(x.Op) {
		b := l.Yields.Mul(r.Yields)
		if comparisonOp(x.Op) {
			b.Min = 0 // comparisons fail
		}
		return gf(eff, b)
	}
	switch x.Op {
	case "===", "~===":
		b := l.Yields.Mul(r.Yields)
		b.Min = 0
		return gf(eff, b)
	}
	// Activation (x @ e) drives an arbitrary co-expression.
	return gf(eff|EffUnknown, boundUnbounded)
}

// comparisonOp reports value operators that may fail (comparisons), as
// opposed to arithmetic, which always yields per operand pair.
func comparisonOp(op string) bool {
	switch op {
	case "<", "<=", ">", ">=", "~=", "==", "~==", "<<", "<<=", ">>", ">>=":
		return true
	}
	return false
}

func (fc *factsComp) unaryFacts(x *ast.Unary, sc *scope) fact {
	switch x.Op {
	case "<>", "|<>":
		// Creation defers the body; the creation expression itself is a
		// pure single value. The body is still walked, for the |> sites
		// and limits inside it.
		fc.expr(x.X, sc)
		return gf(EffPure, boundOne)
	case "|>":
		// A pipe starts its producer eagerly: creating it performs the
		// body's effects (asynchronously), though the creation expression
		// still yields exactly the pipe. PipeStrategy and JV012 ask for
		// the body's facts.
		body := fc.record(x.X, fc.expr(x.X, sc))
		return gf(body.Effects, boundOne)
	}

	o := fc.expr(x.X, sc)
	switch x.Op {
	case "!":
		if exprKind(x.X) == kindValue {
			// Promotion of a collection or string: finite.
			return gf(o.Effects, boundFinite)
		}
	case "^", "*", "-", "+", "~":
		return gf(o.Effects, o.Yields)
	case "/", "\\":
		b := o.Yields
		b.Min = 0
		return gf(o.Effects, b)
	case "?":
		b := o.Yields
		b.Min = 0
		return gf(o.Effects|EffRandom, b)
	case "=":
		return gf(o.Effects|EffHeap, boundFinite)
	case "|":
		if o.Yields.Max == 0 {
			return gf(o.Effects, boundNone)
		}
		return gf(o.Effects, boundUnbounded)
	case "not":
		return gf(o.Effects, boundOpt)
	}
	// Activation, or promotion of anything but a plain value, drives an
	// arbitrary co-expression.
	return gf(o.Effects|EffUnknown, boundUnbounded)
}

// callFacts resolves an invocation's facts.
func (fc *factsComp) callFacts(x *ast.Call, sc *scope) fact {
	args := gf(EffPure, boundOne)
	for _, a := range x.Args {
		af := fc.expr(a, sc)
		args.Effects |= af.Effects
		args.Yields = args.Yields.Mul(af.Yields)
	}
	name, ok := identName(x.Fun)
	if ok && !sc.has(name, symLocal) {
		if pf, have := fc.procs[name]; have {
			fc.expr(x.Fun, sc)
			return gf(args.Effects|pf.Effects|EffReadsGlobals, args.Yields.Mul(pf.Yields))
		}
		if builtinNames()[name] {
			// Unlisted library functions are pure optional single values.
			bf, listed := builtinFacts()[name]
			if !listed {
				bf = GenFacts{Yields: boundOpt}
			}
			fc.expr(x.Fun, sc)
			return gf(args.Effects|bf.Effects, args.Yields.Mul(bf.Yields))
		}
	}
	ff := fc.expr(x.Fun, sc)
	return gf(args.Effects|ff.Effects|EffUnknown, boundUnbounded)
}

// rangeCount computes the per-operand-triple yield count of a to-by.
func rangeCount(x *ast.ToBy) Bound {
	lo, lok := intConst(x.Lo)
	hi, hok := intConst(x.Hi)
	by := int64(1)
	bok := true
	if x.By != nil {
		by, bok = intConst(x.By)
	}
	if !lok || !hok || !bok || by == 0 {
		return boundFinite // non-constant operands: finite, magnitude unknown
	}
	var count int64
	if by > 0 && hi >= lo {
		count = (hi-lo)/by + 1
	} else if by < 0 && hi <= lo {
		count = (lo-hi)/(-by) + 1
	}
	if count > int64(maxExact) {
		return boundFinite
	}
	return exactly(int(count))
}
