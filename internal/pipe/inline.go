package pipe

import (
	"junicon/internal/core"
	"junicon/internal/value"
)

// Inline is the fact-driven stand-in for a Pipe over a statically pure
// producer: the same Stepper surface — Type/Image report a pipe, Stop and
// Err behave like the proxy's, a runtime error inside the producer fails
// the consumer instead of crashing the host — but evaluation happens
// synchronously in the consumer's thread. No goroutine, no transport
// queue, no pool scheduling. The substitution is sound only because the
// producer is pure: with nothing observable inside it, eager-asynchronous
// and lazy-synchronous evaluation yield identical traces.
type Inline struct {
	src     core.Stepper
	err     error
	done    bool // stopped, exhausted, or raised err
	results int
}

var (
	_ value.Gen    = (*Inline)(nil)
	_ core.Stepper = (*Inline)(nil)
	_ value.Sized  = (*Inline)(nil)
)

// NewInline returns an inline proxy over src.
func NewInline(src core.Stepper) *Inline { return &Inline{src: src} }

// Next produces the next value synchronously. Like a pipe whose producer
// iterated to failure, an exhausted (or stopped, or errored) inline proxy
// fails on every subsequent Next.
func (i *Inline) Next() (value.V, bool) {
	if i.done {
		return nil, false
	}
	var v value.V
	var ok bool
	i.err = core.Protect(func() { v, ok = i.src.Step(value.NullV) })
	if i.done = !ok; i.done {
		return nil, false
	}
	if v == nil {
		v = value.NullV
	}
	i.results++
	return value.Deref(v), true
}

// Restart arranges a fresh producer incarnation, as Pipe.Restart does.
func (i *Inline) Restart() {
	i.src = i.src.Refresh()
	i.err = nil
	i.done = false
	i.results = 0
}

// Stop terminates the proxy; further Nexts fail until Restart. There is
// no producer thread to release.
func (i *Inline) Stop() { i.done = true }

// StartEager is a no-op: laziness is the point of the inline proxy, and
// purity is what makes it unobservable.
func (i *Inline) StartEager() {}

// Err reports the runtime error that terminated the producer, if any.
func (i *Inline) Err() error { return i.err }

// Step implements the activation operator @ on the proxy.
func (i *Inline) Step(value.V) (value.V, bool) { return i.Next() }

// Refresh implements ^ on the proxy: a fresh one over a refreshed source.
func (i *Inline) Refresh() core.Stepper { return &Inline{src: i.src.Refresh()} }

// Size reports the number of results taken so far (*P).
func (i *Inline) Size() int { return i.results }

// Type returns "co-expression", like the proxy it stands in for.
func (i *Inline) Type() string { return "co-expression" }

// Image identifies the value as a pipe — inlining must be invisible.
func (i *Inline) Image() string { return "pipe" }

// First takes the first result and stops the proxy (future semantics).
func (i *Inline) First() (value.V, bool) {
	v, ok := i.Next()
	i.Stop()
	return v, ok
}
