// Package core implements the goal-directed iterator kernel — the Go
// analogue of the paper's IconIterator runtime (§5B): suspendable,
// failure-driven, optionally reversible iterators and the functional forms
// (product, alternation, limit, bound iteration, promotion, …) that
// transformed generator expressions compose.
//
// # Protocol
//
// A generator is a value.Gen: Next() produces the next result or reports
// failure (ok == false), and Restart() resets to the beginning. Following
// the paper, failure also rewinds: after Next returns ok == false the
// iterator is ready to produce its sequence again on the following Next.
// Combinators such as Product and Repeat rely on that auto-restart.
//
// # Errors
//
// Icon runtime errors (type mismatches, division by zero, …) abort
// evaluation: the kernel raises them as *value.RuntimeError panics. Protect
// converts such a panic back into an ordinary Go error at API boundaries.
package core

import (
	"junicon/internal/telemetry"
	"junicon/internal/value"
)

// Gen is re-exported for brevity; see value.Gen.
type Gen = value.Gen

// V is re-exported for brevity; see value.V.
type V = value.V

// failGen always fails.
type failGen struct{}

func (failGen) Next() (V, bool) { return nil, false }
func (failGen) Restart()        {}

// Empty returns a generator with an empty result sequence (&fail).
func Empty() Gen { return failGen{} }

// unitGen produces one value per cycle.
type unitGen struct {
	v    V
	done bool
}

func (g *unitGen) Next() (V, bool) {
	if g.done {
		g.done = false // auto-restart after failure
		return nil, false
	}
	g.done = true
	return g.v, true
}
func (g *unitGen) Restart() { g.done = false }

// Unit returns a singleton generator producing just v — the lifting of a
// plain host value into goal-directed evaluation (§5A: "invocation just
// promotes the result to a singleton iterator").
func Unit(v V) Gen {
	if v == nil {
		v = value.NullV
	}
	return &unitGen{v: v}
}

// sliceGen produces a fixed sequence of values.
type sliceGen struct {
	vals []V
	i    int
}

func (g *sliceGen) Next() (V, bool) {
	if g.i >= len(g.vals) {
		g.i = 0
		return nil, false
	}
	v := g.vals[g.i]
	g.i++
	return v, true
}
func (g *sliceGen) Restart() { g.i = 0 }

// Values returns a generator over the given values in order.
func Values(vs ...V) Gen {
	c := make([]V, len(vs))
	copy(c, vs)
	return &sliceGen{vals: c}
}

// ValuesOf returns a generator over vs without copying; the caller must not
// mutate vs afterwards. It is the allocation-lean form of Values for hot
// paths that build the slice themselves.
func ValuesOf(vs []V) Gen { return &sliceGen{vals: vs} }

// deferGen lazily builds its delegate on first use; Restart discards it.
// Used for recursive generator definitions.
type deferGen struct {
	make func() Gen
	g    Gen
}

func (d *deferGen) Next() (V, bool) {
	if d.g == nil {
		d.g = d.make()
	}
	v, ok := d.g.Next()
	if !ok {
		d.g = nil
	}
	return v, ok
}
func (d *deferGen) Restart() { d.g = nil }

// Defer returns a generator that calls make to obtain a fresh delegate each
// cycle. It is the building block for recursion and for restartable
// environments.
func Defer(make func() Gen) Gen { return &deferGen{make: make} }

// Drain runs g to failure, collecting at most max results (max <= 0 means
// unbounded). It is the driving loop that in the paper only happens "at the
// outermost level of interaction".
func Drain(g Gen, max int) []V {
	var out []V
	for {
		v, ok := g.Next()
		if telemetry.On() {
			countNext(ok)
		}
		if !ok {
			return out
		}
		out = append(out, value.Deref(v))
		if max > 0 && len(out) >= max {
			return out
		}
	}
}

// First returns g's first result, dereferenced.
func First(g Gen) (V, bool) {
	v, ok := g.Next()
	if telemetry.On() {
		countNext(ok)
	}
	if !ok {
		return nil, false
	}
	return value.Deref(v), true
}

// Each applies f to every result of g. If f returns false, iteration stops.
func Each(g Gen, f func(V) bool) {
	for {
		v, ok := g.Next()
		if telemetry.On() {
			countNext(ok)
		}
		if !ok {
			return
		}
		if !f(value.Deref(v)) {
			return
		}
	}
}

// Count drives g to failure and returns the number of results.
func Count(g Gen) int {
	n := 0
	for {
		_, ok := g.Next()
		if telemetry.On() {
			countNext(ok)
		}
		if !ok {
			return n
		}
		n++
	}
}

// Protect invokes f, converting an Icon runtime-error panic into an error.
// Public entry points wrap kernel use in Protect so that library users see
// ordinary Go errors. A break or next that reaches it has left the unit it
// stands in, and is the error StrayExit makes of it.
func Protect(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := StrayExit(r).(*value.RuntimeError); ok {
				err = re
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

// Stepper is a first-class iterator value: the common protocol of
// first-class generators (<>e), co-expressions (|<>e) and pipes (|>e) from
// the calculus of Figure 1. Step is the activation operator @ (optionally
// transmitting a value into the iterator); Refresh is the restart operator ^
// which returns a rewound iterator over a fresh copy of the environment.
type Stepper interface {
	value.V
	Step(transmit V) (V, bool)
	Refresh() Stepper
}

// FirstClass is <>e: a plain expression lifted into a first-class iterator
// value with no environment shadowing and no thread.
type FirstClass struct {
	G       Gen
	results int
}

// NewFirstClass lifts g into a first-class iterator value.
func NewFirstClass(g Gen) *FirstClass { return &FirstClass{G: g} }

// Step advances one iteration (@); the transmitted value is ignored.
func (f *FirstClass) Step(V) (V, bool) {
	v, ok := f.G.Next()
	if telemetry.On() {
		countNext(ok)
	}
	if ok {
		f.results++
	}
	return v, ok
}

// Refresh rewinds the underlying generator (^) and returns the receiver.
func (f *FirstClass) Refresh() Stepper {
	if telemetry.On() {
		cRestarts.Inc()
	}
	f.G.Restart()
	f.results = 0
	return f
}

// Size reports the number of results produced so far (*C in Icon).
func (f *FirstClass) Size() int { return f.results }

func (f *FirstClass) Type() string  { return "co-expression" }
func (f *FirstClass) Image() string { return "co-expression" }

// stepGen adapts a Stepper back into a generator — the ! operator of the
// calculus: !e → repeatUntilFailure(suspend @e).
type stepGen struct {
	s Stepper
}

func (g *stepGen) Next() (V, bool) { return g.s.Step(value.NullV) }
func (g *stepGen) Restart()        { g.s = g.s.Refresh() }

// Bang promotes a first-class iterator value back into a generator (!c).
func Bang(s Stepper) Gen { return &stepGen{s: s} }

// Step applies the activation operator @ to a value, raising Icon error 118
// when the operand is not a co-expression-like value.
func Step(c V, transmit V) (V, bool) {
	s, ok := value.Deref(c).(Stepper)
	if !ok {
		value.Raise(value.ErrNotCoexpr, "co-expression expected", value.Deref(c))
	}
	return s.Step(transmit)
}

// Refresh applies the restart operator ^ to a value.
func Refresh(c V) V {
	s, ok := value.Deref(c).(Stepper)
	if !ok {
		value.Raise(value.ErrNotCoexpr, "co-expression expected", value.Deref(c))
	}
	return s.Refresh()
}
