package core

import (
	"junicon/internal/value"
)

// Assignment operators. Targets are reified variables (or expressions
// generating them); assignments are generative through their operands and,
// for the reversible forms, undo themselves when resumed — the "optionally
// reversible" iteration of §5B.

func mustVar(v V) *value.Var {
	r, ok := v.(*value.Var)
	if !ok {
		value.Raise(value.ErrIndex, "variable expected", v)
	}
	return r
}

// assignGen implements x := e over generator operands: for each (target,
// value) pair in the operand product, assign and yield the target variable.
type assignGen struct {
	inner Gen
}

// Assign implements target := src. Both operands are generators; the result
// sequence yields the assigned variable (a reference, as in Icon).
func Assign(target, src Gen) Gen {
	return Apply2(func(t, v V) Gen { return Unit(assignOnce(t, v)) }, varOperand(target), src)
}

// AssignVar is the common normalized case where the target is a known
// reified variable.
func AssignVar(t *value.Var, src Gen) Gen {
	return Apply1(func(v V) Gen {
		t.Set(value.Deref(v))
		return Unit(t)
	}, src)
}

func assignOnce(t, v V) V {
	r := mustVar(unshield(t))
	r.Set(value.Deref(v))
	return r
}

// varOperand wraps a generator so its results are NOT dereferenced — the
// assignment target must remain a variable. Apply2 derefs its operands, so
// we shield targets in a single-element list.
func varOperand(g Gen) Gen { return &shieldGen{e: g} }

type shieldGen struct{ e Gen }

func (s *shieldGen) Next() (V, bool) {
	v, ok := s.e.Next()
	if !ok {
		return nil, false
	}
	return shielded{v}, true
}
func (s *shieldGen) Restart() { s.e.Restart() }

type shielded struct{ v V }

func (s shielded) Type() string  { return "variable" }
func (s shielded) Image() string { return value.Image(s.v) }

func unshield(v V) V {
	if s, ok := v.(shielded); ok {
		return s.v
	}
	return v
}

// revAssignGen implements reversible assignment x <- e: assign, yield, and
// on resumption restore the original value before resuming e; when e is
// exhausted the original value is restored and the expression fails.
type revAssignGen struct {
	t     *value.Var
	e     Gen
	saved V
	live  bool
}

func (g *revAssignGen) Next() (V, bool) {
	if g.live {
		g.t.Set(g.saved)
		g.live = false
	}
	v, ok := g.e.Next()
	if !ok {
		return nil, false
	}
	g.saved = g.t.Get()
	g.t.Set(value.Deref(v))
	g.live = true
	return g.t, true
}

func (g *revAssignGen) Restart() {
	if g.live {
		g.t.Set(g.saved)
		g.live = false
	}
	g.e.Restart()
}

// RevAssignVar implements x <- e for a known target variable.
func RevAssignVar(t *value.Var, src Gen) Gen { return &revAssignGen{t: t, e: src} }

// SwapVars implements x :=: y, exchanging values and yielding x.
func SwapVars(x, y *value.Var) Gen {
	return Defer(func() Gen {
		xv, yv := x.Get(), y.Get()
		x.Set(yv)
		y.Set(xv)
		return Unit(x)
	})
}

// revSwapGen implements reversible exchange x <-> y.
type revSwapGen struct {
	x, y *value.Var
	live bool
	sx   V
	sy   V
}

func (g *revSwapGen) Next() (V, bool) {
	if g.live {
		g.x.Set(g.sx)
		g.y.Set(g.sy)
		g.live = false
		return nil, false
	}
	g.sx, g.sy = g.x.Get(), g.y.Get()
	g.x.Set(g.sy)
	g.y.Set(g.sx)
	g.live = true
	return g.x, true
}

func (g *revSwapGen) Restart() {
	if g.live {
		g.x.Set(g.sx)
		g.y.Set(g.sy)
		g.live = false
	}
}

// RevSwapVars implements x <-> y: exchange, and undo when resumed.
func RevSwapVars(x, y *value.Var) Gen { return &revSwapGen{x: x, y: y} }
