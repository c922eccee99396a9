package analyze

import (
	"junicon/internal/ast"
)

// provision.go holds the one decision the evaluators take from computed
// facts: how a |> site's transport is provisioned from its producer's
// effects and yield bound (inline substitution or a bound-derived
// buffer). Deliberately conservative — semtest's Optimized and Compiled lanes pin that
// a decision here can never change a trace.

// PipeStrategy is a fact-derived provisioning decision for one |> site.
type PipeStrategy struct {
	// Inline substitutes a synchronous in-thread proxy for the pipe: no
	// goroutine, no queue, no pool scheduling. Chosen only for strictly
	// pure producers, where eager-asynchronous versus lazy-synchronous
	// evaluation is unobservable.
	Inline bool
	// Buffer is the transport-queue bound to use instead of the runtime
	// default (0 keeps the default): for a producer with a small exact
	// yield bound, a queue of Max+1 slots holds the entire sequence, so
	// the producer never blocks and the queue never over-allocates.
	Buffer int
}

// PipeStrategy decides how to provision the pipe over the given producer
// body. Zero value (async, default buffer) for nil facts or unanalyzed
// bodies.
func (f *Facts) PipeStrategy(body ast.Node) PipeStrategy {
	g, ok := f.At(body) // nil-safe
	if !ok {
		return PipeStrategy{}
	}
	if g.Effects == EffPure {
		return PipeStrategy{Inline: true}
	}
	if g.Yields.Max >= 0 {
		// Bounded effectful producer: size the queue to the whole sequence
		// (capped well under the runtime default of 1024).
		if b := g.Yields.Max + 1; b < 1024 {
			return PipeStrategy{Buffer: b}
		}
	}
	return PipeStrategy{}
}
