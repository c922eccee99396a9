package interp

import (
	"junicon/internal/ast"
	"junicon/internal/coexpr"
	"junicon/internal/core"
	"junicon/internal/pipe"
	"junicon/internal/value"
)

// eval compiles a syntax tree into a kernel generator. The same compiler
// accepts raw trees and §5A normal forms (FlatProduct / BindIn / TmpRef),
// which is how the tests establish that normalization preserves meaning.
// The vm and translated code run the same normal forms lowered by the
// compile package instead; the semtest lanes pin all three to one trace.
func (in *Interp) eval(n ast.Node, env *Env) core.Gen {
	switch x := n.(type) {
	case nil:
		return core.Unit(value.NullV)

	// ----- literals and names -----
	case *ast.IntLit:
		i, ok := value.ToInteger(value.String(x.Text))
		if !ok {
			value.Raise(value.ErrInteger, "malformed integer literal at "+fmtPos(x.P), value.String(x.Text))
		}
		return core.Unit(i)
	case *ast.RealLit:
		r, ok := value.ToReal(value.String(x.Text))
		if !ok {
			value.Raise(value.ErrNumeric, "malformed real literal at "+fmtPos(x.P), value.String(x.Text))
		}
		return core.Unit(r)
	case *ast.StrLit:
		return core.Unit(value.String(x.Value))
	case *ast.CsetLit:
		return core.Unit(value.NewCset(x.Value))
	case *ast.Keyword:
		return in.keyword(x)
	case *ast.Ident:
		return core.Unit(in.resolve(x.Name, env))
	case *ast.TmpRef:
		return core.Unit(in.resolve(x.Name, env))
	case *ast.ListLit:
		elems := make([]core.Gen, len(x.Elems))
		for i, e := range x.Elems {
			elems[i] = in.eval(e, env)
		}
		return core.ListOf(elems...)

	// ----- normalized forms -----
	case *ast.FlatProduct:
		// Temporaries live at method level, exactly like Figure 5's
		// IconTmp declarations — no nested scope here, or assignments to
		// auto-created locals inside the product would be lost.
		terms := make([]core.Gen, len(x.Terms))
		for i, t := range x.Terms {
			terms[i] = in.eval(t, env)
		}
		return core.Product(terms...)
	case *ast.BindIn:
		cell := env.Define(x.Tmp, value.NullV)
		return core.In(cell, in.eval(x.E, env))

	// ----- operators -----
	case *ast.Binary:
		return in.binary(x, env)
	case *ast.Unary:
		return in.unary(x, env)
	case *ast.ToBy:
		var by core.Gen
		if x.By != nil {
			by = in.eval(x.By, env)
		}
		return core.ToBy(in.eval(x.Lo, env), in.eval(x.Hi, env), by)

	// ----- primaries -----
	case *ast.Call:
		fun := in.eval(x.Fun, env)
		args := make([]core.Gen, len(x.Args))
		for i, a := range x.Args {
			args[i] = in.eval(a, env)
		}
		return core.Invoke(fun, args...)
	case *ast.NativeCall:
		return in.nativeCall(x, env)
	case *ast.Index:
		return core.IndexGen(in.eval(x.X, env), in.eval(x.I, env))
	case *ast.Slice:
		return core.SectionGen(in.eval(x.X, env), in.eval(x.I, env), in.eval(x.J, env))
	case *ast.Field:
		return core.FieldGen(in.eval(x.X, env), x.Name)

	// ----- control -----
	case *ast.Block:
		// Icon has no block-level scoping: identifiers are procedure-wide,
		// so the compound shares the surrounding scope.
		if len(x.Stmts) == 0 {
			return core.Unit(value.NullV)
		}
		stmts := make([]core.Gen, len(x.Stmts))
		for i, s := range x.Stmts {
			stmts[i] = in.eval(s, env)
		}
		return core.Sequence(stmts...)
	case *ast.VarDecl:
		cells := make([]*value.Var, len(x.Names))
		inits := make([]core.Gen, len(x.Names))
		for i, name := range x.Names {
			cells[i] = env.Define(name, value.NullV)
			if x.Inits[i] != nil {
				inits[i] = in.eval(x.Inits[i], env)
			}
		}
		return core.Defer(func() core.Gen {
			for i, cell := range cells {
				if inits[i] == nil {
					cell.Set(value.NullV)
					continue
				}
				v, ok := core.First(inits[i])
				inits[i].Restart()
				if ok {
					cell.Set(v)
				} else {
					cell.Set(value.NullV)
				}
			}
			return core.Unit(value.NullV)
		})
	case *ast.If:
		var els core.Gen
		if x.Else != nil {
			els = in.eval(x.Else, env)
		}
		return core.IfThen(in.eval(x.Cond, env), in.eval(x.Then, env), els)
	case *ast.While:
		var body core.Gen
		if x.Body != nil {
			body = in.eval(x.Body, env)
		}
		if x.Until {
			return core.Until(in.eval(x.Cond, env), body)
		}
		return core.While(in.eval(x.Cond, env), body)
	case *ast.Every:
		var body core.Gen
		if x.Body != nil {
			body = in.eval(x.Body, env)
		}
		return core.Every(in.eval(x.E, env), body)
	case *ast.Repeat:
		return core.RepeatLoop(in.eval(x.Body, env))
	case *ast.Case:
		clauses := make([]core.CaseClause, 0, len(x.Clauses))
		var deflt core.Gen
		for _, c := range x.Clauses {
			if c.Sel == nil {
				deflt = in.eval(c.Body, env)
				continue
			}
			clauses = append(clauses, core.CaseClause{
				Sel:  in.eval(c.Sel, env),
				Body: in.eval(c.Body, env),
			})
		}
		return core.Case(in.eval(x.Subject, env), clauses, deflt)
	case *ast.Break:
		var e core.Gen
		if x.E != nil {
			e = in.eval(x.E, env)
		}
		return core.BreakGen(e)
	case *ast.NextStmt:
		return core.NextGen()
	case *ast.Fail:
		return core.Empty()

	// ----- procedure-body forms appearing in expression position -----
	case *ast.Return, *ast.Suspend:
		value.Raise(value.ErrProcedure,
			"return/suspend outside a procedure body at "+fmtPos(n.Pos()), nil)
	}
	value.Raise(value.ErrProcedure, "cannot evaluate node at "+fmtPos(n.Pos()), nil)
	panic("unreachable")
}

// keyword evaluates &-keywords.
func (in *Interp) keyword(k *ast.Keyword) core.Gen {
	switch k.Name {
	case "null":
		return core.Unit(value.NullV)
	case "fail":
		return core.Empty()
	case "lcase":
		return core.Unit(value.CsetLcase)
	case "ucase":
		return core.Unit(value.CsetUcase)
	case "digits":
		return core.Unit(value.CsetDigits)
	case "letters":
		return core.Unit(value.CsetLetters)
	case "subject":
		return core.Unit(core.SubjectVar(in.scan))
	case "pos":
		return core.Unit(core.PosVar(in.scan))
	default:
		value.Raise(value.ErrProcedure, "unknown keyword &"+k.Name, nil)
	}
	panic("unreachable")
}

// binary compiles binary operators.
func (in *Interp) binary(x *ast.Binary, env *Env) core.Gen {
	switch x.Op {
	case "&":
		return core.Product(in.eval(x.L, env), in.eval(x.R, env))
	case "|":
		return core.Alt(in.eval(x.L, env), in.eval(x.R, env))
	case ":=":
		return in.assign(x.L, in.eval(x.R, env), env)
	case "<-":
		return core.RevAssignTo(in.lvalueGen(x.L, env), in.eval(x.R, env))
	case ":=:":
		return core.SwapTo(in.lvalueGen(x.L, env), in.lvalueGen(x.R, env))
	case "<->":
		return core.RevSwapTo(in.lvalueGen(x.L, env), in.lvalueGen(x.R, env))
	case "@":
		return core.ActivateGen(in.eval(x.L, env), in.eval(x.R, env))
	case "\\":
		return core.LimitGen(in.eval(x.L, env), in.eval(x.R, env))
	case "?":
		// String scanning: the body runs inside the scanning environment,
		// compiled fresh per subject value.
		body := x.R
		scope := env
		return core.ScanExpr(in.scan, in.eval(x.L, env), func() core.Gen {
			return in.eval(body, scope)
		})
	}
	if op2, ok := core.ArithOp(x.Op); ok {
		return core.Op2(op2, in.eval(x.L, env), in.eval(x.R, env))
	}
	if cmp, ok := core.CompareOp(x.Op); ok {
		return core.Cmp2(cmp, in.eval(x.L, env), in.eval(x.R, env))
	}
	// Augmented assignment: "op:=".
	if len(x.Op) > 2 && x.Op[len(x.Op)-2:] == ":=" {
		base := x.Op[:len(x.Op)-2]
		if op2, ok := core.ArithOp(base); ok {
			return core.AugAssignTo(op2, in.lvalueGen(x.L, env), in.eval(x.R, env))
		}
		if cmp, ok := core.CompareOp(base); ok {
			return core.CmpAugAssignTo(cmp, in.lvalueGen(x.L, env), in.eval(x.R, env))
		}
	}
	value.Raise(value.ErrProcedure, "unknown operator "+x.Op+" at "+fmtPos(x.P), nil)
	panic("unreachable")
}

// lvalueGen compiles an assignment target to a generator of variables.
func (in *Interp) lvalueGen(target ast.Node, env *Env) core.Gen {
	switch t := target.(type) {
	case *ast.Ident:
		return core.Unit(in.resolve(t.Name, env))
	case *ast.TmpRef:
		return core.Unit(in.resolve(t.Name, env))
	case *ast.Index:
		return core.IndexGen(in.eval(t.X, env), in.eval(t.I, env))
	case *ast.Field:
		return core.FieldGen(in.eval(t.X, env), t.Name)
	case *ast.Unary:
		if t.Op == "!" {
			// every !L := 0: element references are assignable.
			return core.Promote(in.eval(t.X, env))
		}
	}
	// General expression target: evaluate; results must be variables.
	return in.eval(target, env)
}

func (in *Interp) assign(target ast.Node, src core.Gen, env *Env) core.Gen {
	if id, ok := target.(*ast.Ident); ok {
		return core.AssignVar(in.resolve(id.Name, env), src)
	}
	if id, ok := target.(*ast.TmpRef); ok {
		return core.AssignVar(in.resolve(id.Name, env), src)
	}
	return core.Assign(in.lvalueGen(target, env), src)
}

// unary compiles prefix operators, including the calculus operators of
// Figure 1.
func (in *Interp) unary(x *ast.Unary, env *Env) core.Gen {
	switch x.Op {
	case "!":
		return core.Promote(in.eval(x.X, env))
	case "@":
		return core.ActivateGen(nil, in.eval(x.X, env))
	case "^":
		return core.Op1(core.Refresh, in.eval(x.X, env))
	case "*":
		return core.SizeOp(in.eval(x.X, env))
	case "-":
		return core.Op1(value.Neg, in.eval(x.X, env))
	case "+":
		return core.Op1(value.Pos, in.eval(x.X, env))
	case "~":
		return core.Op1(value.Complement, in.eval(x.X, env))
	case "/":
		return core.NullTest(in.eval(x.X, env))
	case "\\":
		return core.NonNullTest(in.eval(x.X, env))
	case "?":
		return core.RandomGen(in.eval(x.X, env))
	case "=":
		// =s ≡ tab(match(s)) against the current scanning environment.
		tm := in.builtins["tabMatch"].(*value.Proc)
		return core.Apply1(func(v value.V) core.Gen { return tm.Call(v) }, in.eval(x.X, env))
	case "|":
		return core.RepeatAlt(in.eval(x.X, env))
	case "not":
		return core.Not(in.eval(x.X, env))
	case "<>":
		// First-class generator over the (unshadowed) expression.
		body := x.X
		scope := env
		return core.Defer(func() core.Gen {
			return core.Unit(core.NewFirstClass(in.eval(body, scope)))
		})
	case "|<>":
		return core.Defer(func() core.Gen {
			return core.Unit(in.makeCoexpr(x.X, env))
		})
	case "|>":
		// Provisioned from facts when there are any (WithOptimize):
		// strictly pure producers run inline (no goroutine, no queue);
		// bounded producers get a queue sized to their whole sequence
		// instead of the default.
		strategy := in.facts.PipeStrategy(x.X)
		if strategy.Inline {
			return core.Defer(func() core.Gen {
				return core.Unit(pipe.NewInline(in.makeCoexpr(x.X, env)))
			})
		}
		buffer := strategy.Buffer
		if buffer <= 0 {
			buffer = pipe.DefaultBuffer
		}
		return core.Defer(func() core.Gen {
			p := pipe.New(in.makeCoexpr(x.X, env), buffer)
			p.StartEager()
			return core.Unit(p)
		})
	}
	value.Raise(value.ErrProcedure, "unknown unary operator "+x.Op, nil)
	panic("unreachable")
}

// makeCoexpr synthesizes a co-expression for |<>e and |>e: the referenced
// locals are found by textually scoping up (§5D), snapshotted, and the body
// is compiled against the shadowed environment.
func (in *Interp) makeCoexpr(body ast.Node, env *Env) *coexpr.CoExpr {
	names := freeLocals(body, env)
	locals := make([]value.V, len(names))
	for i, name := range names {
		cell, _ := env.Lookup(name)
		locals[i] = cell.Get()
	}
	return coexpr.New(locals, func(cells []*value.Var) core.Gen {
		shadow := NewEnv(env)
		for i, name := range names {
			shadow.vars[name] = cells[i]
		}
		return unitBody{in.eval(body, shadow)}
	})
}

// unitBody is a create body, a unit of its own: a break or next no loop
// of the body caught raises in it, as in a procedure body, instead of
// ending the loop that activates it.
type unitBody struct{ core.Gen }

func (b unitBody) Next() (value.V, bool) {
	defer func() {
		if r := recover(); r != nil {
			panic(core.StrayExit(r))
		}
	}()
	return b.Gen.Next()
}

// freeLocals collects, in first-use order, identifiers in n bound to local
// variables in env — the "textually scoping up for referenced locals" of
// §5D.
func freeLocals(n ast.Node, env *Env) []string {
	var names []string
	seen := map[string]bool{}
	ast.Walk(n, func(m ast.Node) bool {
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
		if _, ok := env.Lookup(name); ok {
			seen[name] = true
			names = append(names, name)
		}
		return true
	})
	return names
}

// nativeCall compiles expr::name(args): lookup in the native registry, with
// the receiver (when present) passed as the first argument.
func (in *Interp) nativeCall(x *ast.NativeCall, env *Env) core.Gen {
	native, ok := in.natives[x.Name]
	if !ok {
		value.Raise(value.ErrProcedure, "unregistered native ::"+x.Name+" at "+fmtPos(x.P), nil)
	}
	gens := make([]core.Gen, 0, len(x.Args)+1)
	if x.Recv != nil {
		gens = append(gens, in.eval(x.Recv, env))
	}
	for _, a := range x.Args {
		gens = append(gens, in.eval(a, env))
	}
	return core.Invoke(core.Unit(native), gens...)
}
