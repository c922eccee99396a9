package core

import (
	"iter"

	"junicon/internal/value"
)

// Suspendable generator functions. A Unicon method containing suspend
// becomes, in the tree walk, a generator whose body runs until the next
// suspend and statefully resumes there on the following Next (§5B: "the
// kernel is optimized to statefully resume its point of suspension").
//
// NewGen realizes that with iter.Pull, which parks the body on a runtime
// coroutine — suspension without multithreading, exactly the property the
// paper claims over thread-based coroutine emulations (§8).

// pullGen adapts a push-style body to the kernel protocol.
type pullGen struct {
	body func(yield func(V) bool)
	next func() (V, bool)
	stop func()
}

func (g *pullGen) Next() (V, bool) {
	if g.next == nil {
		g.next, g.stop = iter.Pull(iter.Seq[V](g.body))
	}
	v, ok := g.next()
	if !ok {
		g.reset()
		return nil, false
	}
	if v == nil {
		v = value.NullV
	}
	return v, true
}

func (g *pullGen) Restart() { g.reset() }

func (g *pullGen) reset() {
	if g.stop != nil {
		g.stop()
	}
	g.next, g.stop = nil, nil
}

// NewGen builds a generator from a body written in push style: the body
// calls yield for each suspend; returning ends the sequence (fail). If
// yield reports false the consumer has abandoned iteration and the body
// must return promptly.
//
// The resulting generator auto-restarts: after the body returns, a
// subsequent Next runs a fresh instance of the body.
func NewGen(body func(yield func(V) bool)) Gen { return &pullGen{body: body} }

// GenProc wraps a push-style generator function as a procedure value: the
// analogue of a Unicon `method f(a, b) { … suspend e … }` definition.
// Each invocation gets its own suspendable body instance.
func GenProc(name string, arity int, body func(args []V, yield func(V) bool)) *value.Proc {
	return value.NewProc(name, arity, func(args ...V) Gen {
		captured := make([]V, len(args))
		copy(captured, args)
		return NewGen(func(yield func(V) bool) { body(captured, yield) })
	})
}

// StepProc wraps a pull-style generator function as a procedure value: on
// the first Next of each activation, start receives the arguments and
// returns the step function that produces the results one per call, ok
// false ending the sequence. Suspension is the step function's own
// captured state — no coroutine, so an activation abandoned mid-sequence
// holds nothing but memory — and exhaustion or Restart start afresh.
func StepProc(name string, arity int, start func(args []V) func() (V, bool)) *value.Proc {
	return value.NewProc(name, arity, func(args ...V) Gen {
		captured := append([]V(nil), args...)
		return Defer(func() Gen { return stepFunc(start(captured)) })
	})
}

// stepFunc is a step function as a generator; the Defer around it owns
// its restart.
type stepFunc func() (V, bool)

func (s stepFunc) Next() (V, bool) { return s() }
func (s stepFunc) Restart()        {}

// ValProc wraps a plain single-result Go function as a procedure value; a
// nil result means failure. This is the convenient form for host functions
// participating in goal-directed evaluation.
func ValProc(name string, arity int, f func(args []V) V) *value.Proc {
	return value.NewProc(name, arity, func(args ...V) Gen {
		v := f(args)
		if v == nil {
			return Empty()
		}
		return Unit(v)
	})
}
