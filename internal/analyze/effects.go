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
// provisioning, JV012) and the left operand of every limit (JV014).
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
	opts Options
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
func (f *Facts) ExtendDecls(batch []ast.Node, opts Options) {
	var stmts []ast.Node
	fresh := len(f.decls)
	rebound := false
	add := func(p *ast.ProcDecl) {
		if f.cg.Procs[p.Name] != nil || f.cg.late[p.Name] {
			rebound = true
		}
		f.cg.Procs[p.Name] = p
		f.decls = append(f.decls, p)
	}
	// A declared global is never a local, whichever arrives first: a
	// procedure analyzed before the declaration that counted the name
	// among its locals gets fresh name sets and the tables a re-run.
	declare := func(names []string) {
		for _, name := range names {
			if f.globals[name] {
				continue
			}
			f.globals[name] = true
			for p, cx := range f.ctx {
				if cx.locals[name] {
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
		// name sets that still hold.
		f.cg = newCallGraph()
		f.procs = map[string]*ProcFacts{}
		f.nodes = map[ast.Node]GenFacts{}
		for _, p := range f.decls {
			f.cg.Procs[p.Name] = p
		}
		live := f.decls[:0]
		for _, p := range f.decls {
			if f.cg.Procs[p.Name] == p {
				live = append(live, p)
			} else {
				delete(f.ctx, p)
			}
		}
		f.decls, fresh = live, 0
	}
	fc := &factsComp{Facts: f, opts: opts}
	fc.solve(f.decls[fresh:])
	fc.cacheStatements(stmts)
}

// ExtendExpr computes and caches facts for one more top-level expression
// against the already-computed interprocedural tables — the incremental
// path for the REPL and EvalGen: declarations are analyzed once at load
// time; each evaluated expression then extends the node cache without
// re-running the whole-program fixpoint.
func (f *Facts) ExtendExpr(n ast.Node, opts Options) {
	if f == nil || n == nil {
		return
	}
	fc := &factsComp{Facts: f, opts: opts}
	fc.cacheStatements([]ast.Node{n})
}

// solve summarizes the given procedures — already in the call graph's
// Procs, their callees either among them or summarized earlier — and
// caches the facts their bodies will be asked for.
func (fc *factsComp) solve(decls []*ast.ProcDecl) {
	if len(decls) == 0 {
		return
	}
	names := make([]string, len(decls))
	for i, p := range decls {
		names[i] = p.Name
		if fc.ctx[p] == nil { // a re-run finds them in place
			fc.ctx[p] = newProcCtx(p, fc.globals)
		}
	}
	sort.Strings(names)
	// Edges once every procedure of the batch is in Procs, so mutual
	// recursion inside a batch resolves.
	for _, p := range decls {
		fc.cg.addCalls(fc.ctx[p], p.Body)
	}
	rec := fc.cg.recursiveAmong(names)

	// Bottom-initialize, pinning recursive procedures to their sound
	// summaries: generator recursion (any suspend in the body) yields
	// unboundedly; return-only recursion yields at most once.
	for _, p := range decls {
		pf := &ProcFacts{Name: p.Name, GenFacts: GenFacts{Yields: boundNone}}
		if rec[p.Name] {
			pf.Recursive = true
			if containsSuspend(p.Body) {
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

	// Caching pass: one more walk of each body (stmtEffects reaches every
	// expression), against the final table.
	fc.cache = fc.nodes
	for _, p := range decls {
		fc.stmtEffects(p.Body, fc.ctx[p])
	}
	fc.cache = nil
}

// cacheStatements records the facts of top-level statements in the
// transient cache, replacing its previous contents.
func (fc *factsComp) cacheStatements(stmts []ast.Node) {
	fc.exprNodes = make(map[ast.Node]GenFacts)
	fc.cache = fc.exprNodes
	for _, s := range stmts {
		fc.expr(s, topLevelCtx)
	}
	fc.cache = nil
}

// containsSuspend reports whether a body suspends anywhere (nested create
// bodies excluded: their suspensions belong to the created generator).
func containsSuspend(n ast.Node) bool {
	found := false
	ast.Walk(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if u, ok := m.(*ast.Unary); ok && (u.Op == "<>" || u.Op == "|<>" || u.Op == "|>") {
			return false
		}
		if _, ok := m.(*ast.Suspend); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// summarize computes one procedure's summary from the current table.
func (fc *factsComp) summarize(name string) GenFacts {
	decl := fc.cg.Procs[name]
	cx := fc.ctx[decl]
	eff := fc.stmtEffects(decl.Body, cx)
	yields, _ := fc.procYields(decl.Body.Stmts, cx)
	if fc.cg.Unknown[name] {
		eff |= EffUnknown
	}
	// Control transfers inside the body resolve inside the invocation;
	// they are not effects of calling the procedure.
	eff &^= EffControl
	return GenFacts{Effects: eff, Yields: yields}
}

// record caches, on the caching pass, the facts of a node a consumer
// looks up by identity (Facts.At).
func (fc *factsComp) record(n ast.Node, g GenFacts) GenFacts {
	if fc.cache != nil && n != nil {
		fc.cache[n] = g
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

// builtinFactsFor returns the summary of a builtin, defaulting to a pure
// optional single value for unlisted library functions.
func builtinFactsFor(name string) GenFacts {
	if f, ok := builtinFacts()[name]; ok {
		return f
	}
	return GenFacts{Yields: boundOpt}
}

// ---------- expression facts ----------

// expr computes (and on the final pass caches) the facts of an expression.
func (fc *factsComp) expr(n ast.Node, cx *procCtx) GenFacts {
	switch x := n.(type) {
	case nil:
		return GenFacts{Yields: boundNone}

	case *ast.IntLit, *ast.RealLit, *ast.StrLit, *ast.CsetLit:
		return GenFacts{Yields: boundOne}

	case *ast.Keyword:
		if x.Name == "fail" {
			return GenFacts{Yields: boundNone}
		}
		return GenFacts{Yields: boundOne}

	case *ast.Ident:
		return fc.readFacts(x.Name, cx)
	case *ast.TmpRef:
		// Normalization temporaries are bound by their BindIn term within
		// the enclosing FlatProduct — locals by construction, never globals.
		return GenFacts{Yields: boundOne}

	case *ast.ListLit:
		g := GenFacts{Yields: boundOne}
		for _, e := range x.Elems {
			ef := fc.expr(e, cx)
			g.Effects |= ef.Effects
			if !ef.Yields.CannotFail() {
				g.Yields.Min = 0
			}
		}
		return g

	case *ast.Binary:
		return fc.binaryFacts(x, cx)

	case *ast.Unary:
		return fc.unaryFacts(x, cx)

	case *ast.ToBy:
		lo := fc.expr(x.Lo, cx)
		hi := fc.expr(x.Hi, cx)
		g := GenFacts{Effects: lo.Effects | hi.Effects}
		operands := lo.Yields.Mul(hi.Yields)
		if x.By != nil {
			by := fc.expr(x.By, cx)
			g.Effects |= by.Effects
			operands = operands.Mul(by.Yields)
		}
		g.Yields = operands.Mul(rangeCount(x))
		return g

	case *ast.Call:
		return fc.callFacts(x, cx)

	case *ast.NativeCall:
		g := GenFacts{Effects: EffUnknown, Yields: boundOpt}
		if fc.opts.NativeFacts != nil {
			if nf, ok := fc.opts.NativeFacts(x.Name); ok {
				g = nf
			}
		}
		if x.Recv != nil {
			rf := fc.expr(x.Recv, cx)
			g.Effects |= rf.Effects
			g.Yields = rf.Yields.Mul(g.Yields)
		}
		for _, a := range x.Args {
			af := fc.expr(a, cx)
			g.Effects |= af.Effects
			g.Yields = af.Yields.Mul(g.Yields)
		}
		return g

	case *ast.Index:
		xf := fc.expr(x.X, cx)
		idx := fc.expr(x.I, cx)
		b := xf.Yields.Mul(idx.Yields)
		b.Min = 0 // subscripts fail out of range
		return GenFacts{Effects: xf.Effects | idx.Effects, Yields: b}

	case *ast.Slice:
		g := fc.joinAll(cx, x.X, x.I, x.J)
		g.Yields.Min = 0
		return g

	case *ast.Field:
		xf := fc.expr(x.X, cx)
		b := xf.Yields
		b.Min = 0
		return GenFacts{Effects: xf.Effects, Yields: b}

	case *ast.If:
		cond := fc.expr(x.Cond, cx)
		then := fc.expr(x.Then, cx)
		els := fc.expr(x.Else, cx) // nil → {0,0}
		g := GenFacts{Effects: cond.Effects | then.Effects | els.Effects}
		g.Yields = then.Yields.Join(els.Yields)
		if x.Else == nil || !cond.Yields.CannotFail() {
			g.Yields.Min = 0
		}
		return g

	case *ast.While:
		g := fc.joinAll(cx, x.Cond, x.Body)
		g.Yields = boundNone // loops fail as expressions
		return g
	case *ast.Every:
		g := fc.joinAll(cx, x.E, x.Body)
		g.Yields = boundNone
		return g
	case *ast.Repeat:
		g := fc.joinAll(cx, x.Body)
		g.Yields = boundNone
		return g

	case *ast.Case:
		subj := fc.expr(x.Subject, cx)
		g := GenFacts{Effects: subj.Effects, Yields: boundNone}
		for _, c := range x.Clauses {
			if c.Sel != nil {
				g.Effects |= fc.expr(c.Sel, cx).Effects
			}
			cf := fc.expr(c.Body, cx)
			g.Effects |= cf.Effects
			g.Yields = g.Yields.Join(cf.Yields)
		}
		g.Yields.Min = 0
		return g

	case *ast.Block:
		if len(x.Stmts) == 0 {
			return GenFacts{Yields: boundOne}
		}
		g := GenFacts{}
		for _, s := range x.Stmts {
			g.Effects |= fc.expr(s, cx).Effects
		}
		// Bounded failures of leading statements are discarded; the
		// block's sequence is the last statement's.
		g.Yields = fc.expr(x.Stmts[len(x.Stmts)-1], cx).Yields
		return g

	case *ast.VarDecl:
		g := GenFacts{Yields: boundOne}
		for _, init := range x.Inits {
			if init != nil {
				g.Effects |= fc.expr(init, cx).Effects
			}
		}
		return g

	case *ast.Initial:
		g := fc.joinAll(cx, x.Body)
		g.Yields = boundOne
		return g

	case *ast.BindIn:
		return fc.expr(x.E, cx)

	case *ast.FlatProduct:
		g := GenFacts{Yields: boundOne}
		for _, t := range x.Terms {
			tf := fc.expr(t, cx)
			g.Effects |= tf.Effects
			g.Yields = g.Yields.Mul(tf.Yields)
		}
		return g

	case *ast.Break:
		g := fc.joinAll(cx, x.E)
		g.Effects |= EffControl
		g.Yields = boundNone
		return g
	case *ast.NextStmt:
		return GenFacts{Effects: EffControl, Yields: boundNone}
	case *ast.Fail:
		return GenFacts{Effects: EffControl, Yields: boundNone}
	case *ast.Return:
		g := fc.joinAll(cx, x.E)
		g.Effects |= EffControl
		g.Yields = boundOpt
		return g
	case *ast.Suspend:
		g := fc.joinAll(cx, x.E, x.Body)
		g.Effects |= EffControl
		return g
	}
	// Unknown node kind: top.
	return GenFacts{Effects: EffUnknown, Yields: boundUnbounded}
}

// joinAll joins the effects of several subexpressions (nil skipped),
// returning a record whose bound is the join of theirs.
func (fc *factsComp) joinAll(cx *procCtx, ns ...ast.Node) GenFacts {
	g := GenFacts{Yields: boundNone}
	for _, n := range ns {
		if n == nil {
			continue
		}
		nf := fc.expr(n, cx)
		g.Effects |= nf.Effects
		g.Yields = g.Yields.Join(nf.Yields)
	}
	return g
}

// readFacts classifies an identifier read. Any non-local name — global,
// builtin, host-known or auto-created at first use — reads shared state,
// and so does a static: it holds what an earlier invocation left there.
func (fc *factsComp) readFacts(name string, cx *procCtx) GenFacts {
	g := GenFacts{Yields: boundOne}
	if !cx.locals[name] || cx.statics[name] {
		g.Effects = EffReadsGlobals
	}
	return g
}

// writeEffect classifies an assignment target.
func (fc *factsComp) writeEffect(target ast.Node, cx *procCtx) Effects {
	switch t := target.(type) {
	case *ast.Ident:
		// A static outlives the invocation: writing one is visible to the
		// next call, exactly like writing a global.
		if cx.locals[t.Name] && !cx.statics[t.Name] {
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

func (fc *factsComp) binaryFacts(x *ast.Binary, cx *procCtx) GenFacts {
	l := fc.expr(x.L, cx)
	r := fc.expr(x.R, cx)
	eff := l.Effects | r.Effects
	switch x.Op {
	case "&":
		return GenFacts{Effects: eff, Yields: l.Yields.Mul(r.Yields)}
	case "|":
		return GenFacts{Effects: eff, Yields: l.Yields.Add(r.Yields)}
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
		return GenFacts{Effects: eff, Yields: b}
	case ":=", "<-":
		eff |= fc.writeEffect(x.L, cx)
		b := r.Yields
		if x.Op == "<-" {
			b.Min = 0 // reversible assignment restores and fails on backtrack
			eff |= EffUndo
		}
		return GenFacts{Effects: eff, Yields: b}
	case ":=:", "<->":
		eff |= fc.writeEffect(x.L, cx) | fc.writeEffect(x.R, cx)
		if x.Op == "<->" {
			eff |= EffUndo
		}
		return GenFacts{Effects: eff, Yields: boundOpt}
	case "@":
		// Activation drives an arbitrary co-expression: unknown effects,
		// one value or failure per activation.
		return GenFacts{Effects: eff | EffUnknown, Yields: boundUnbounded}
	case "?":
		// Scanning: the body runs against a swapped scan environment.
		b := r.Yields
		b.Min = 0
		return GenFacts{Effects: eff | EffHeap, Yields: b}
	}
	if isAssignOp(x.Op) { // augmented assignment op:=
		eff |= fc.writeEffect(x.L, cx)
		b := l.Yields.Mul(r.Yields)
		b.Min = 0
		return GenFacts{Effects: eff, Yields: b}
	}
	if isValueOp(x.Op) {
		b := l.Yields.Mul(r.Yields)
		if comparisonOp(x.Op) {
			b.Min = 0 // comparisons fail
		}
		return GenFacts{Effects: eff, Yields: b}
	}
	switch x.Op {
	case "===", "~===":
		b := l.Yields.Mul(r.Yields)
		b.Min = 0
		return GenFacts{Effects: eff, Yields: b}
	}
	return GenFacts{Effects: eff | EffUnknown, Yields: boundUnbounded}
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

func (fc *factsComp) unaryFacts(x *ast.Unary, cx *procCtx) GenFacts {
	switch x.Op {
	case "<>", "|<>":
		// Creation defers the body; the creation expression itself is a
		// pure single value. The body is still walked, for the |> sites
		// and limits inside it.
		fc.expr(x.X, cx)
		return GenFacts{Yields: boundOne}
	case "|>":
		// A pipe starts its producer eagerly: creating it performs the
		// body's effects (asynchronously), though the creation expression
		// still yields exactly the pipe. PipeStrategy and JV012 ask for
		// the body's facts.
		body := fc.record(x.X, fc.expr(x.X, cx))
		return GenFacts{Effects: body.Effects, Yields: boundOne}
	}

	o := fc.expr(x.X, cx)
	switch x.Op {
	case "!":
		k := exprKind(x.X)
		if k == kindCoexpr || k == kindPipe {
			return GenFacts{Effects: o.Effects | EffUnknown, Yields: boundUnbounded}
		}
		if k == kindValue {
			// Promotion of a collection or string: finite.
			return GenFacts{Effects: o.Effects, Yields: boundFinite}
		}
		return GenFacts{Effects: o.Effects | EffUnknown, Yields: boundUnbounded}
	case "@":
		return GenFacts{Effects: o.Effects | EffUnknown, Yields: boundUnbounded}
	case "^":
		return GenFacts{Effects: o.Effects, Yields: o.Yields}
	case "*", "-", "+", "~":
		return GenFacts{Effects: o.Effects, Yields: o.Yields}
	case "/", "\\":
		b := o.Yields
		b.Min = 0
		return GenFacts{Effects: o.Effects, Yields: b}
	case "?":
		b := o.Yields
		b.Min = 0
		return GenFacts{Effects: o.Effects | EffRandom, Yields: b}
	case "=":
		return GenFacts{Effects: o.Effects | EffHeap, Yields: boundFinite}
	case "|":
		if o.Yields.Max == 0 {
			return GenFacts{Effects: o.Effects, Yields: boundNone}
		}
		return GenFacts{Effects: o.Effects, Yields: boundUnbounded}
	case "not":
		return GenFacts{Effects: o.Effects, Yields: boundOpt}
	}
	return GenFacts{Effects: o.Effects | EffUnknown, Yields: boundUnbounded}
}

// callFacts resolves an invocation's facts.
func (fc *factsComp) callFacts(x *ast.Call, cx *procCtx) GenFacts {
	args := GenFacts{Yields: boundOne}
	for _, a := range x.Args {
		af := fc.expr(a, cx)
		args.Effects |= af.Effects
		args.Yields = args.Yields.Mul(af.Yields)
	}
	name, ok := identName(x.Fun)
	if ok && !cx.locals[name] {
		if pf, have := fc.procs[name]; have {
			fc.expr(x.Fun, cx)
			return GenFacts{
				Effects: args.Effects | pf.Effects | EffReadsGlobals,
				Yields:  args.Yields.Mul(pf.Yields),
			}
		}
		if builtinNames()[name] {
			bf := builtinFactsFor(name)
			fc.expr(x.Fun, cx)
			return GenFacts{
				Effects: args.Effects | bf.Effects,
				Yields:  args.Yields.Mul(bf.Yields),
			}
		}
	}
	ff := fc.expr(x.Fun, cx)
	return GenFacts{Effects: args.Effects | ff.Effects | EffUnknown, Yields: boundUnbounded}
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

// ---------- procedure yields ----------

// procYields computes a procedure's per-invocation yield bound from its
// statement list: contributions of suspends plus a terminal return.
func (fc *factsComp) procYields(stmts []ast.Node, cx *procCtx) (Bound, bool) {
	total := boundNone
	for _, s := range stmts {
		b, terminated := fc.stmtYields(s, cx)
		total = total.Add(b)
		if terminated {
			return total, true
		}
	}
	// Falling off the end fails the procedure — no further results, and
	// the accumulated minimum stands (those suspensions already happened).
	return total, false
}

// stmtYields computes one statement's yield contribution and whether it
// unconditionally terminates the invocation.
func (fc *factsComp) stmtYields(s ast.Node, cx *procCtx) (Bound, bool) {
	switch x := s.(type) {
	case *ast.Suspend:
		b := fc.expr(x.E, cx).Yields
		if x.Body != nil {
			body, _ := fc.stmtYields(x.Body, cx)
			b = b.Add(b.Mul(body))
		}
		return b, false
	case *ast.Return:
		if x.E == nil {
			return boundOne, true
		}
		fc.expr(x.E, cx)
		if cannotFail(x.E) {
			return boundOne, true
		}
		return boundOpt, true
	case *ast.Fail:
		return boundNone, true
	case *ast.Block:
		return fc.procYields(x.Stmts, cx)
	case *ast.If:
		then, tdone := fc.stmtYields(x.Then, cx)
		var els Bound
		edone := false
		if x.Else != nil {
			els, edone = fc.stmtYields(x.Else, cx)
		}
		j := then.Join(els)
		if x.Else == nil || !cannotFail(x.Cond) {
			j.Min = 0
		}
		return j, tdone && edone && x.Else != nil && cannotFail(x.Cond)
	case *ast.While, *ast.Repeat:
		var body ast.Node
		if w, ok := x.(*ast.While); ok {
			body = w.Body
		} else {
			body = x.(*ast.Repeat).Body
		}
		if body == nil {
			return boundNone, false
		}
		b, _ := fc.stmtYields(body, cx)
		if b.Max == 0 {
			return boundNone, false
		}
		return boundUnbounded, false
	case *ast.Every:
		// `every suspend e` merges into per-result suspension.
		per := boundNone
		src := fc.expr(x.E, cx).Yields
		if sus, ok := x.E.(*ast.Suspend); ok {
			src = fc.expr(sus.E, cx).Yields
			per = exactly(1)
		}
		if x.Body != nil {
			b, _ := fc.stmtYields(x.Body, cx)
			per = per.Add(b)
		}
		out := src.Mul(per)
		out.Min = 0
		return out, false
	case *ast.Case:
		out := boundNone
		for _, c := range x.Clauses {
			b, _ := fc.stmtYields(c.Body, cx)
			out = out.Join(b)
		}
		out.Min = 0
		return out, false
	case *ast.Initial:
		b, _ := fc.stmtYields(x.Body, cx)
		b.Min = 0
		return b, false
	}
	// Expression statements (bounded) yield nothing to the caller.
	return boundNone, false
}

// stmtEffects joins the effect summaries of a statement's expressions,
// descending the structural statement forms so control-transfer nodes in
// statement position do not poison the summary with EffControl.
func (fc *factsComp) stmtEffects(s ast.Node, cx *procCtx) Effects {
	switch x := s.(type) {
	case nil:
		return EffPure
	case *ast.Block:
		eff := EffPure
		for _, st := range x.Stmts {
			eff |= fc.stmtEffects(st, cx)
		}
		return eff
	case *ast.If:
		return fc.expr(x.Cond, cx).Effects |
			fc.stmtEffects(x.Then, cx) | fc.stmtEffects(x.Else, cx)
	case *ast.While:
		return fc.expr(x.Cond, cx).Effects | fc.stmtEffects(x.Body, cx)
	case *ast.Every:
		eff := fc.stmtEffects(x.Body, cx)
		if sus, ok := x.E.(*ast.Suspend); ok {
			return eff | fc.expr(sus.E, cx).Effects | fc.stmtEffects(sus.Body, cx)
		}
		return eff | fc.expr(x.E, cx).Effects
	case *ast.Repeat:
		return fc.stmtEffects(x.Body, cx)
	case *ast.Suspend:
		return fc.expr(x.E, cx).Effects | fc.stmtEffects(x.Body, cx)
	case *ast.Return:
		if x.E == nil {
			return EffPure
		}
		return fc.expr(x.E, cx).Effects
	case *ast.Fail, *ast.NextStmt:
		return EffPure
	case *ast.Break:
		if x.E == nil {
			return EffPure
		}
		return fc.expr(x.E, cx).Effects
	case *ast.Case:
		eff := fc.expr(x.Subject, cx).Effects
		for _, c := range x.Clauses {
			if c.Sel != nil {
				eff |= fc.expr(c.Sel, cx).Effects
			}
			eff |= fc.stmtEffects(c.Body, cx)
		}
		return eff
	case *ast.VarDecl:
		eff := EffPure
		for _, init := range x.Inits {
			if init != nil {
				eff |= fc.expr(init, cx).Effects
			}
		}
		return eff
	case *ast.Initial:
		return fc.stmtEffects(x.Body, cx)
	}
	return fc.expr(s, cx).Effects
}
