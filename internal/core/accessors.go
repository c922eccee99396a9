package core

import (
	"math/rand"

	"junicon/internal/value"
)

// This file packages the remaining Unicon operations as kernel combinators
// for the interpreter and host compositions (as Figure 5's Java composes
// IconProduct/IconIn/IconPromote).

// IndexGen composes subscripting x[i] over generator operands, yielding
// updatable references for structures; out-of-range subscripts fail.
func IndexGen(x, i Gen) Gen {
	return Apply2(func(c, iv V) Gen {
		v, ok := value.Subscript(c, iv)
		if !ok {
			return Empty()
		}
		return Unit(v)
	}, x, i)
}

// SectionGen composes sectioning x[i:j] over generator operands.
func SectionGen(x, i, j Gen) Gen {
	return Op3(func(c, iv, jv V) Gen {
		v, ok := value.Section(c, iv, jv)
		if !ok {
			return Empty()
		}
		return Unit(v)
	}, x, i, j)
}

// FieldGen composes field access x.name over a generator operand; a missing
// field raises Icon error 207.
func FieldGen(x Gen, name string) Gen {
	return Apply1(func(r V) Gen {
		v, ok := value.Field(r, name)
		if !ok {
			value.Raise(value.ErrField, "missing field "+name, value.Deref(r))
		}
		return Unit(v)
	}, x)
}

// ActivateGen composes activation: transmit @ c (unary @c when transmit is
// nil). Failure of the co-expression fails the expression.
func ActivateGen(transmit, c Gen) Gen {
	if transmit == nil {
		transmit = Unit(value.NullV)
	}
	return Apply2(func(tv, cv V) Gen {
		v, ok := Step(cv, tv)
		if !ok {
			return Empty()
		}
		return Unit(v)
	}, transmit, c)
}

// NullTest implements /x: succeeds with null when the operand is null.
func NullTest(e Gen) Gen {
	return Cmp1(func(v V) (V, bool) {
		if value.IsNull(value.Deref(v)) {
			return value.NullV, true
		}
		return nil, false
	}, e)
}

// NonNullTest implements \x: succeeds with the value when non-null.
func NonNullTest(e Gen) Gen {
	return Cmp1(func(v V) (V, bool) {
		d := value.Deref(v)
		if value.IsNull(d) {
			return nil, false
		}
		return d, true
	}, e)
}

// LimitGen implements e \ n with a generator-valued count: the count is
// evaluated first, as in Icon.
func LimitGen(e, n Gen) Gen {
	return Apply1(func(nv V) Gen {
		// e is captured here, not an Apply1 operand (the limit applies to
		// its whole sequence), so an external Restart of this expression
		// cannot reach it. Restart it when a limit cycle begins instead:
		// without this, a bounded re-execution (loop body, product
		// re-drive) would resume a suspended e and fail one spurious time
		// before e's own auto-restart kicked in.
		e.Restart()
		return Limit(e, value.MustInt(nv))
	}, n)
}

// SizeOp implements unary *x, including co-expression/pipe sizes.
func SizeOp(e Gen) Gen {
	return Op1(func(v V) V {
		if s, ok := value.Deref(v).(value.Sized); ok {
			return value.IntV(int64(s.Size()))
		}
		return value.Size(v)
	}, e)
}

// RandomElement implements ?x for integers, strings and lists; empty
// operands fail.
func RandomElement(v V) (V, bool) {
	switch x := value.Deref(v).(type) {
	case value.Integer:
		n, ok := x.Int64()
		if !ok || n < 1 {
			return nil, false
		}
		return value.IntV(1 + rand.Int63n(n)), true
	case value.String:
		if len(x) == 0 {
			return nil, false
		}
		i := rand.Intn(len(x))
		return x[i : i+1], true
	case *value.List:
		if x.Len() == 0 {
			return nil, false
		}
		e, _ := x.At(1 + rand.Intn(x.Len()))
		return e, true
	default:
		return nil, false
	}
}

// RandomGen composes ?x over a generator operand.
func RandomGen(e Gen) Gen { return Cmp1(RandomElement, e) }

// BreakGen raises the kernel break signal when stepped (break in expression
// position, caught by the enclosing kernel loop).
func BreakGen(e Gen) Gen { return sigGen{f: func() { Break(e) }} }

// NextGen raises the kernel next signal when stepped.
func NextGen() Gen { return sigGen{f: NextIter} }

type sigGen struct{ f func() }

func (g sigGen) Next() (V, bool) { g.f(); return nil, false }
func (g sigGen) Restart()        {}

// ListOf constructs [e1, e2, …]. Like every Icon operation, the
// constructor searches the product space of its operand sequences (§2A):
// [1 to 2, 5] generates [1,5] and [2,5]; failure of any element fails the
// constructor. (The generative normalization-equivalence test caught an
// earlier bounded-element version of this — normalization hoists list
// elements into bound iterators, which searches them.)
func ListOf(elems ...Gen) Gen {
	if len(elems) == 0 {
		return Defer(func() Gen { return Unit(value.NewList()) })
	}
	tuple := Op1(func(v V) V { return value.NewList(v) }, elems[0])
	for _, e := range elems[1:] {
		tuple = Op2(func(acc, x V) V {
			l := acc.(*value.List).Copy()
			l.Put(x)
			return l
		}, tuple, e)
	}
	return tuple
}

// ---- assignment over target generators ----
//
// Targets are generators of variables. The shield protects the variables
// from the operand dereferencing of the Apply combinators.

type shieldVarsGen struct{ e Gen }

type heldVar struct{ v *value.Var }

func (h heldVar) Type() string  { return "variable" }
func (h heldVar) Image() string { return h.v.Image() }

func (s *shieldVarsGen) Next() (V, bool) {
	v, ok := s.e.Next()
	if !ok {
		return nil, false
	}
	if cell, isVar := v.(*value.Var); isVar {
		return heldVar{v: cell}, true
	}
	return v, true
}

func (s *shieldVarsGen) Restart() { s.e.Restart() }

func mustHeldVar(v V, op string) *value.Var {
	if h, ok := v.(heldVar); ok {
		return h.v
	}
	if cell, ok := v.(*value.Var); ok {
		return cell
	}
	value.Raise(value.ErrIndex, "variable expected in "+op, v)
	panic("unreachable")
}

// RevAssignTo implements target <- src where target generates variables.
// src stays closure-captured (RevAssignVar owns its save/restore cycle per
// target variable), so it is restarted explicitly per application — an
// externally restarted reversible assignment must not resume a suspended
// src (see AugAssignTo).
func RevAssignTo(target, src Gen) Gen {
	return Apply1(func(tv V) Gen {
		src.Restart()
		return RevAssignVar(mustHeldVar(tv, "<-"), src)
	}, &shieldVarsGen{e: target})
}

// SwapTo implements l :=: r over variable-generating targets.
func SwapTo(l, r Gen) Gen {
	return Apply2(func(lv, rv V) Gen {
		return SwapVars(mustHeldVar(lv, ":=:"), mustHeldVar(rv, ":=:"))
	}, &shieldVarsGen{e: l}, &shieldVarsGen{e: r})
}

// RevSwapTo implements l <-> r over variable-generating targets.
func RevSwapTo(l, r Gen) Gen {
	return Apply2(func(lv, rv V) Gen {
		return RevSwapVars(mustHeldVar(lv, "<->"), mustHeldVar(rv, "<->"))
	}, &shieldVarsGen{e: l}, &shieldVarsGen{e: r})
}

// AugAssignTo implements target op:= src for plain operations. src must be
// an Apply2 operand, not captured in the application closure: a closure
// capture would hide it from Restart, and a bounded re-execution (a loop
// body) would then resume src mid-sequence instead of restarting it.
func AugAssignTo(op func(a, b V) V, target, src Gen) Gen {
	return Apply2(func(tv, sv V) Gen {
		t := mustHeldVar(tv, "op:=")
		t.Set(op(t.Get(), sv))
		return Unit(t)
	}, &shieldVarsGen{e: target}, src)
}

// CmpAugAssignTo implements target op:= src for conditional operations.
// Like AugAssignTo, src is an Apply2 operand so Restart reaches it.
func CmpAugAssignTo(op func(a, b V) (V, bool), target, src Gen) Gen {
	return Apply2(func(tv, sv V) Gen {
		t := mustHeldVar(tv, "op:=")
		r, ok := op(t.Get(), sv)
		if !ok {
			return Empty()
		}
		t.Set(r)
		return Unit(t)
	}, &shieldVarsGen{e: target}, src)
}

// ArithOp returns the kernel function for a binary arithmetic/construction
// operator symbol, for use by the interpreter and translated code.
func ArithOp(op string) (func(a, b V) V, bool) {
	f, ok := arithOps[op]
	return f, ok
}

// CompareOp returns the kernel function for a conditional comparison
// operator symbol.
func CompareOp(op string) (func(a, b V) (V, bool), bool) {
	f, ok := compareOps[op]
	return f, ok
}

var arithOps = map[string]func(a, b V) V{
	"+":   value.Add,
	"-":   value.Sub,
	"*":   value.Mul,
	"/":   value.Div,
	"%":   value.Mod,
	"^":   value.Pow,
	"||":  value.Concat,
	"|||": value.ListConcat,
	"++":  value.Union,
	"--":  value.Difference,
	"**":  value.Intersection,
}

var compareOps = map[string]func(a, b V) (V, bool){
	"<":    value.NumLt,
	"<=":   value.NumLe,
	">":    value.NumGt,
	">=":   value.NumGe,
	"~=":   value.NumNe,
	"<<":   value.StrLt,
	"<<=":  value.StrLe,
	">>":   value.StrGt,
	">>=":  value.StrGe,
	"==":   value.StrEq,
	"~==":  value.StrNe,
	"===":  value.Same,
	"~===": value.NotSame,
}
