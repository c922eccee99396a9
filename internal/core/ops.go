package core

import (
	"junicon/internal/value"
)

// Operators over generator operands. An Icon operation searches the product
// space of its operand sequences: f(e,e') ≡ (x in e) & (y in e') & f(x,y)
// (§2A). The combinators below implement that composition directly, so the
// normalized forms produced by the transform package — and hand-written
// kernel compositions — share one engine.

// op2Gen drives the operand product for a binary operation whose application
// may itself be a generator.
type op2Gen struct {
	f      func(a, b V) Gen
	a, b   Gen
	av, bv V
	app    Gen // current application generator, nil when none
	aLive  bool
	bLive  bool
}

func (g *op2Gen) Next() (V, bool) {
	for {
		if g.app != nil {
			if v, ok := g.app.Next(); ok {
				return v, true
			}
			g.app = nil
		}
		if !g.aLive {
			av, ok := g.a.Next()
			if !ok {
				return nil, false
			}
			g.av = value.Deref(av)
			g.aLive = true
			g.bLive = false
		}
		bv, ok := g.b.Next()
		if !ok {
			g.aLive = false
			continue
		}
		g.bv = value.Deref(bv)
		g.app = g.f(g.av, g.bv)
	}
}

func (g *op2Gen) Restart() {
	g.a.Restart()
	g.b.Restart()
	g.app = nil
	g.aLive = false
}

// Apply2 composes a binary operation f over operand generators a and b,
// searching the operand product. f returns the application's own result
// sequence.
func Apply2(f func(a, b V) Gen, a, b Gen) Gen { return &op2Gen{f: f, a: a, b: b} }

// Op2 lifts a plain binary function (always one result) over generators.
func Op2(f func(a, b V) V, a, b Gen) Gen {
	return Apply2(func(x, y V) Gen { return Unit(f(x, y)) }, a, b)
}

// Cmp2 lifts a conditional binary operation — one that succeeds with a value
// or fails, like the comparison operators — over generators. Failure of the
// operation resumes the operands: (1 to 5) > 3 produces 3 twice.
func Cmp2(f func(a, b V) (V, bool), a, b Gen) Gen {
	return Apply2(func(x, y V) Gen {
		v, ok := f(x, y)
		if !ok {
			return Empty()
		}
		return Unit(v)
	}, a, b)
}

// Op3 composes a ternary operation over three operand generators.
func Op3(f func(a, b, c V) Gen, a, b, c Gen) Gen {
	return Apply2(func(ab, cv V) Gen {
		p := ab.(*value.List)
		return f(p.Elems()[0], p.Elems()[1], cv)
	}, Op2(func(x, y V) V { return value.NewList(x, y) }, a, b), c)
}

// Op1 lifts a unary function over a generator operand.
type op1Gen struct {
	f func(V) Gen
	e Gen
	g Gen
}

func (o *op1Gen) Next() (V, bool) {
	for {
		if o.g != nil {
			if v, ok := o.g.Next(); ok {
				return v, true
			}
			o.g = nil
		}
		v, ok := o.e.Next()
		if !ok {
			return nil, false
		}
		o.g = o.f(value.Deref(v))
	}
}

func (o *op1Gen) Restart() {
	o.e.Restart()
	o.g = nil
}

// Apply1 composes a unary operation over a generator operand.
func Apply1(f func(V) Gen, e Gen) Gen { return &op1Gen{f: f, e: e} }

// Op1 lifts a plain unary function over a generator operand.
func Op1(f func(V) V, e Gen) Gen {
	return Apply1(func(x V) Gen { return Unit(f(x)) }, e)
}

// Cmp1 lifts a conditional unary operation over a generator operand.
func Cmp1(f func(V) (V, bool), e Gen) Gen {
	return Apply1(func(x V) Gen {
		v, ok := f(x)
		if !ok {
			return Empty()
		}
		return Unit(v)
	}, e)
}

// InvokeVal applies a callable value to already-evaluated arguments,
// yielding the invocation's result sequence:
//
//   - procedures run their generator body;
//   - natives produce a singleton (or fail when the native reports failure);
//   - an integer i selects the i-th argument (Icon's mutual evaluation form
//     i(e1, …, en));
//   - a first-class iterator value ignores arguments and steps once.
func InvokeVal(f V, args ...V) Gen {
	for i, a := range args {
		args[i] = value.Deref(a)
	}
	switch fn := value.Deref(f).(type) {
	case *value.Proc:
		return fn.Call(args...)
	case *value.Native:
		v, err := fn.Fn(args...)
		if err != nil {
			value.Raise(value.ErrProcedure, "native "+fn.Name+": "+err.Error(), nil)
		}
		if v == nil {
			return Empty()
		}
		return Unit(v)
	case value.Integer:
		i, ok := fn.Int64()
		if !ok {
			return Empty()
		}
		if i < 0 {
			i = int64(len(args)) + 1 + i
		}
		if i < 1 || i > int64(len(args)) {
			return Empty()
		}
		return Unit(args[i-1])
	case Stepper:
		v, ok := fn.Step(value.NullV)
		if !ok {
			return Empty()
		}
		return Unit(v)
	default:
		value.Raise(value.ErrProcedure, "procedure or integer expected", value.Deref(f))
	}
	panic("unreachable")
}

// applyNativeGen invokes a native on each cycle, reading its argument at
// invocation time. It is the fused form of the normalized pattern
//
//	Defer(func() Gen { return InvokeVal(n, arg()) })
//
// for a *value.Native callee: semantically identical (raise on error, fail
// on native failure, singleton result, auto-restart per cycle) but with a
// reusable argument buffer and no per-cycle generator allocation — the
// pattern dominates the hand-composed per-value invocation chains.
type applyNativeGen struct {
	fn   *value.Native
	arg  func() V
	args [1]V
	done bool
}

func (g *applyNativeGen) Next() (V, bool) {
	if g.done {
		g.done = false // auto-restart after failure
		return nil, false
	}
	g.args[0] = value.Deref(g.arg())
	v, err := g.fn.Fn(g.args[:]...)
	if err != nil {
		value.Raise(value.ErrProcedure, "native "+g.fn.Name+": "+err.Error(), nil)
	}
	if v == nil {
		return nil, false // native failure: empty cycle, restart on next Next
	}
	g.done = true
	return v, true
}

func (g *applyNativeGen) Restart() { g.done = false }

// ApplyNative composes a unary native invocation whose argument is read
// (typically from a cell) each cycle.
func ApplyNative(fn *value.Native, arg func() V) Gen {
	return &applyNativeGen{fn: fn, arg: arg}
}

// apply1Gen is ApplyVal's general case: invoke f on each cycle, delegating
// to the invocation's generator until it fails. The argument buffer is
// reused across cycles, so the callee must not retain the args slice
// (procedures copy their arguments; natives deref immediately).
type apply1Gen struct {
	f    V
	arg  func() V
	args [1]V
	g    Gen
}

func (a *apply1Gen) Next() (V, bool) {
	if a.g == nil {
		a.args[0] = value.Deref(a.arg())
		a.g = InvokeVal(a.f, a.args[:]...)
	}
	v, ok := a.g.Next()
	if !ok {
		a.g = nil // auto-restart: next cycle re-reads the argument
	}
	return v, ok
}

func (a *apply1Gen) Restart() { a.g = nil }

// ApplyVal composes a unary invocation of a fixed callee whose argument is
// read (typically from a cell) each cycle — the allocation-lean equivalent
// of Defer(func() Gen { return InvokeVal(f, arg()) }).
func ApplyVal(f V, arg func() V) Gen {
	if n, ok := value.Deref(f).(*value.Native); ok {
		return &applyNativeGen{fn: n, arg: arg}
	}
	return &apply1Gen{f: f, arg: arg}
}

// Invoke composes invocation over generator operands: the function position
// itself may be a generator, as in (f | g)(x) (§2A).
func Invoke(f Gen, args ...Gen) Gen {
	switch len(args) {
	case 0:
		return Apply1(func(fv V) Gen { return InvokeVal(fv) }, f)
	default:
		// Fold arguments into a tuple list, then apply.
		tuple := Op1(func(v V) V { return value.NewList(v) }, args[0])
		for _, a := range args[1:] {
			tuple = Op2(func(acc, x V) V {
				l := acc.(*value.List).Copy()
				l.Put(x)
				return l
			}, tuple, a)
		}
		return Apply2(func(fv, argv V) Gen {
			return InvokeVal(fv, argv.(*value.List).Elems()...)
		}, f, tuple)
	}
}
