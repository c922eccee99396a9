package interp

import (
	"sync"

	"junicon/internal/ast"
	"junicon/internal/core"
	"junicon/internal/value"
)

// Procedure bodies execute structurally so that suspend / return / fail may
// appear anywhere — inside loop bodies, branches and nested blocks — as in
// Figure 4's chunk(), whose suspend sits inside an if inside a while.
// Expressions within statements compile through eval; the control skeleton
// is walked directly, with suspension riding the kernel's coroutine-backed
// NewGen.

// returnSignal unwinds a procedure body for return/fail.
type returnSignal struct {
	v  value.V
	ok bool
}

// stopSignal unwinds when the consumer abandons iteration (yield == false).
type stopSignal struct{}

// makeProc compiles a procedure declaration into a procedure value. Each
// invocation runs an independent suspendable body instance over a fresh
// scope (parameters are variadic in the Unicon way: missing → null).
func (in *Interp) makeProc(d *ast.ProcDecl, defEnv *Env) *value.Proc {
	params := append([]string(nil), d.Params...)
	body := d.Body
	name := d.Name
	// Per-procedure persistent state: static variables live in a scope
	// shared by all invocations, and `initial` clauses (plus static
	// initializers) run exactly once, on the first invocation.
	staticEnv := NewEnv(defEnv)
	var onceInit sync.Once
	for _, s := range body.Stmts {
		if vd, ok := s.(*ast.VarDecl); ok && vd.Kind == "static" {
			for _, n := range vd.Names {
				staticEnv.Define(n, value.NullV)
			}
		}
	}
	return value.NewProc(name, len(params), func(args ...value.V) core.Gen {
		captured := make([]value.V, len(args))
		for i, a := range args {
			captured[i] = value.Deref(a)
		}
		return core.NewGen(func(yield func(value.V) bool) {
			env := NewEnv(staticEnv)
			_ = defEnv
			for i, p := range params {
				if i < len(captured) {
					env.Define(p, captured[i])
				} else {
					env.Define(p, value.NullV)
				}
			}
			// Icon-style procedure tracing (&trace; §9 future work).
			tr := in.tracer
			rawYield := yield
			if tr != nil {
				tr.Call(name, captured)
				yield = func(v value.V) bool {
					tr.Suspend(name, v)
					return rawYield(v)
				}
			}
			defer func() {
				if r := recover(); r != nil {
					switch sig := r.(type) {
					case returnSignal:
						if sig.ok {
							if tr != nil {
								tr.Return(name, sig.v)
							}
							rawYield(sig.v)
						} else if tr != nil {
							tr.Fail(name)
						}
					case stopSignal:
						// consumer abandoned; just unwind
					default:
						// A break or next no loop of the body caught
						// raises here, not in the caller's loop.
						panic(core.StrayExit(r))
					}
					return
				}
				if tr != nil {
					tr.Fail(name)
				}
			}()
			onceInit.Do(func() {
				for _, s := range body.Stmts {
					switch x := s.(type) {
					case *ast.VarDecl:
						if x.Kind == "static" {
							for i, n := range x.Names {
								if x.Inits[i] == nil {
									continue
								}
								g := in.eval(x.Inits[i], env)
								if v, ok := core.First(g); ok {
									if cell, found := staticEnv.Lookup(n); found {
										cell.Set(v)
									}
								}
								g.Restart()
							}
						}
					case *ast.Initial:
						in.execBounded(x.Body, env, yield)
					}
				}
			})
			for _, s := range body.Stmts {
				in.execStmt(s, env, yield)
			}
			// Falling off the end fails the procedure (Icon semantics).
		})
	})
}

// execStmt executes one statement of a procedure body.
func (in *Interp) execStmt(s ast.Node, env *Env, yield func(value.V) bool) {
	switch x := s.(type) {
	case *ast.Block:
		// No block scope in Icon: statements share the procedure scope.
		for _, st := range x.Stmts {
			in.execStmt(st, env, yield)
		}
	case *ast.VarDecl:
		if x.Kind == "static" {
			// Statics are declared and initialized once per procedure
			// (handled in makeProc's first-invocation block).
			return
		}
		for i, name := range x.Names {
			cell := env.Define(name, value.NullV)
			if x.Inits[i] != nil {
				g := in.eval(x.Inits[i], env)
				if v, ok := core.First(g); ok {
					cell.Set(v)
				}
				g.Restart()
			}
		}
	case *ast.Initial:
		// Executed once per procedure, in makeProc's first-invocation block.
		return
	case *ast.Return:
		if x.E == nil {
			panic(returnSignal{v: value.NullV, ok: true})
		}
		g := in.eval(x.E, env)
		v, ok := core.First(g)
		g.Restart()
		panic(returnSignal{v: v, ok: ok})
	case *ast.Fail:
		panic(returnSignal{ok: false})
	case *ast.Suspend:
		// suspend e [do body]: yield every result of e, running the
		// do-clause after each resumption.
		g := in.eval(x.E, env)
		for {
			v, ok := g.Next()
			if !ok {
				return
			}
			if !yield(value.Deref(v)) {
				panic(stopSignal{})
			}
			if x.Body != nil {
				in.execBounded(x.Body, env, yield)
			}
		}
	case *ast.If:
		cond := in.eval(x.Cond, env)
		_, ok := cond.Next()
		cond.Restart()
		if ok {
			in.execStmt(x.Then, env, yield)
		} else if x.Else != nil {
			in.execStmt(x.Else, env, yield)
		}
	case *ast.While:
		in.execLoop(yield, func() {
			for {
				cond := in.eval(x.Cond, env)
				_, ok := cond.Next()
				cond.Restart()
				if x.Until {
					ok = !ok
				}
				if !ok {
					return
				}
				if x.Body != nil {
					in.loopBody(x.Body, env, yield)
				}
			}
		})
	case *ast.Every:
		// `every suspend e [do body]` — the classic produce-all idiom —
		// suspends each result of e, running the do-clause per resumption.
		if sus, isSuspend := x.E.(*ast.Suspend); isSuspend {
			merged := &ast.Suspend{E: sus.E, Body: x.Body}
			merged.P = sus.P
			if sus.Body != nil {
				merged.Body = sus.Body
			}
			in.execStmt(merged, env, yield)
			return
		}
		in.execLoop(yield, func() {
			g := in.eval(x.E, env)
			for {
				if _, ok := g.Next(); !ok {
					return
				}
				if x.Body != nil {
					in.loopBody(x.Body, env, yield)
				}
			}
		})
	case *ast.Repeat:
		in.execLoop(yield, func() {
			for {
				in.loopBody(x.Body, env, yield)
			}
		})
	case *ast.Case:
		subj := in.eval(x.Subject, env)
		sv, ok := core.First(subj)
		subj.Restart()
		if !ok {
			return
		}
		var deflt ast.Node
		for _, c := range x.Clauses {
			if c.Sel == nil {
				deflt = c.Body
				continue
			}
			sel := in.eval(c.Sel, env)
			matched := false
			core.Each(sel, func(v value.V) bool {
				if value.Equiv(sv, v) {
					matched = true
					return false
				}
				return true
			})
			sel.Restart()
			if matched {
				in.execStmt(c.Body, env, yield)
				return
			}
		}
		if deflt != nil {
			in.execStmt(deflt, env, yield)
		}
	case *ast.Break:
		var e core.Gen
		if x.E != nil {
			e = in.eval(x.E, env)
		}
		core.Break(e)
	case *ast.NextStmt:
		core.NextIter()
	case *ast.Binary:
		if x.Op == "?" {
			in.execScan(x, env, yield)
			return
		}
		in.execBounded(s, env, yield)
	default:
		// Plain expression: bounded evaluation.
		in.execBounded(s, env, yield)
	}
}

// execScan executes a scanning statement e1 ? e2 structurally, so suspend
// may appear inside the scanned body (as in the fields() idiom). The
// statement is bounded: one subject value, body executed once, with the
// environment swap discipline maintained across suspensions.
func (in *Interp) execScan(x *ast.Binary, env *Env, yield func(value.V) bool) {
	subj := in.eval(x.L, env)
	sv, ok := core.First(subj)
	subj.Restart()
	if !ok {
		return
	}
	s, oks := value.ToString(sv)
	if !oks {
		value.Raise(value.ErrString, "?: string subject expected", sv)
	}
	inner := &core.ScanState{Subject: string(s), Pos: 1}
	outer := in.scan.Swap(inner)
	defer in.scan.Swap(outer) // restore on return/fail unwinding too
	swappedYield := func(v value.V) bool {
		// While the procedure is suspended, the outer environment rules.
		in.scan.Swap(outer)
		r := yield(v)
		in.scan.Swap(inner)
		return r
	}
	in.execStmt(x.R, env, swappedYield)
}

// execBounded evaluates an expression statement for one result or failure.
func (in *Interp) execBounded(s ast.Node, env *Env, yield func(value.V) bool) {
	// Suspend nested in expression position is still a statement form.
	if _, isSuspend := s.(*ast.Suspend); isSuspend {
		in.execStmt(s, env, yield)
		return
	}
	g := in.eval(s, env)
	g.Next()
	g.Restart()
}

// loopBody runs a loop body once, honoring next.
func (in *Interp) loopBody(body ast.Node, env *Env, yield func(value.V) bool) {
	core.TrapNext(func() { in.execStmt(body, env, yield) })
}

// execLoop runs a structural loop, honoring break: `break e` makes e's
// first result the statement's (discarded) outcome; break with a value
// inside a suspend-producing loop just terminates the loop.
func (in *Interp) execLoop(yield func(value.V) bool, loop func()) {
	brk := core.RunLoop(loop)
	if brk != nil {
		// The break outcome is evaluated (bounded) for its effects.
		brk.Next()
		brk.Restart()
	}
}
