package core

import (
	"junicon/internal/value"
)

// Control constructs, expressed — as in the paper — as subtypes of the one
// iterator kernel: while, every, if and friends are just "abbreviations"
// built from the stream operations (§5B).

// breakSignal and nextSignal implement Icon's break/next by non-local exit:
// loop iterators catch them; the interpreter's loop bodies throw them.
type breakSignal struct {
	g Gen // outcome generator of `break e`; Empty for a bare break
}

type nextSignal struct{}

// Break aborts the lexically innermost kernel loop; the loop's outcome
// becomes e's outcome (bare break uses Empty()).
func Break(e Gen) {
	if e == nil {
		e = Empty()
	}
	panic(breakSignal{g: e})
}

// NextIter aborts the current loop body iteration (the next expression).
func NextIter() { panic(nextSignal{}) }

// StrayExit returns the error a break or next raises when it reaches the
// boundary of the unit it stands in — a procedure body or a top-level
// evaluation — with no loop of the unit to catch it, as compiled code
// raises it; any other panic value it returns as it is.
func StrayExit(r any) any {
	switch r.(type) {
	case breakSignal:
		return &value.RuntimeError{Code: value.ErrProcedure, Message: "break outside a loop"}
	case nextSignal:
		return &value.RuntimeError{Code: value.ErrProcedure, Message: "next outside a loop body"}
	}
	return r
}

// loopStep runs one bounded evaluation of body, translating next-signals
// into normal completion and propagating break to the caller's recover.
func loopStep(body Gen) {
	if body == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(nextSignal); ok {
				body.Restart()
				return
			}
			panic(r)
		}
	}()
	body.Next() // bounded: at most one result, discarded
	body.Restart()
}

// RunLoop executes loop, catching break signals raised by Break; it returns
// the break outcome generator, or nil if the loop ended normally. Exposed
// for the interpreter's structural execution of procedure bodies, which
// shares the kernel's break/next discipline.
func RunLoop(loop func()) (brk Gen) { return runLoop(loop) }

// TrapNext runs f, treating a NextIter signal as normal completion.
// Exposed for the interpreter's structural loop bodies.
func TrapNext(f func()) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(nextSignal); ok {
				return
			}
			panic(r)
		}
	}()
	f()
}

// runLoop executes loop, catching break; it returns the break outcome
// generator, or nil if the loop ended normally.
func runLoop(loop func()) (brk Gen) {
	defer func() {
		if r := recover(); r != nil {
			if b, ok := r.(breakSignal); ok {
				brk = b.g
				return
			}
			panic(r)
		}
	}()
	loop()
	return nil
}

// whileGen implements while e1 do e2.
type whileGen struct {
	cond, body Gen
	until      bool
	out        Gen // break outcome being delegated
}

func (g *whileGen) Next() (V, bool) {
	if g.out != nil {
		v, ok := g.out.Next()
		if !ok {
			g.out = nil
		}
		return v, ok
	}
	brk := runLoop(func() {
		for {
			_, ok := g.cond.Next()
			g.cond.Restart()
			if g.until {
				ok = !ok
			}
			if !ok {
				return
			}
			loopStep(g.body)
		}
	})
	if brk != nil {
		g.out = brk
		return g.Next()
	}
	return nil, false
}

func (g *whileGen) Restart() {
	g.cond.Restart()
	if g.body != nil {
		g.body.Restart()
	}
	g.out = nil
}

// While implements `while cond do body` (body may be nil). The loop
// expression fails unless terminated by break e.
func While(cond, body Gen) Gen { return &whileGen{cond: cond, body: body} }

// Until implements `until cond do body`.
func Until(cond, body Gen) Gen { return &whileGen{cond: cond, body: body, until: true} }

// everyGen implements every e1 do e2: drive e1 to failure, evaluating the
// bounded body for each result.
type everyGen struct {
	e, body Gen
	out     Gen
}

func (g *everyGen) Next() (V, bool) {
	if g.out != nil {
		v, ok := g.out.Next()
		if !ok {
			g.out = nil
		}
		return v, ok
	}
	brk := runLoop(func() {
		for {
			if _, ok := g.e.Next(); !ok {
				return
			}
			loopStep(g.body)
		}
	})
	if brk != nil {
		g.out = brk
		return g.Next()
	}
	return nil, false
}

func (g *everyGen) Restart() {
	g.e.Restart()
	if g.body != nil {
		g.body.Restart()
	}
	g.out = nil
}

// Every implements `every e do body` (body may be nil); the construct fails.
func Every(e, body Gen) Gen { return &everyGen{e: e, body: body} }

// repeatLoopGen implements `repeat body`.
type repeatLoopGen struct {
	body Gen
	out  Gen
}

func (g *repeatLoopGen) Next() (V, bool) {
	if g.out != nil {
		v, ok := g.out.Next()
		if !ok {
			g.out = nil
		}
		return v, ok
	}
	brk := runLoop(func() {
		for {
			loopStep(g.body)
		}
	})
	if brk != nil {
		g.out = brk
		return g.Next()
	}
	return nil, false
}

func (g *repeatLoopGen) Restart() {
	g.body.Restart()
	g.out = nil
}

// RepeatLoop implements `repeat body`; only break terminates it.
func RepeatLoop(body Gen) Gen { return &repeatLoopGen{body: body} }

// ifGen implements if e1 then e2 else e3: the condition is bounded; the
// selected branch supplies the result sequence (if is generative through
// its branch).
type ifGen struct {
	cond, then, els Gen
	branch          Gen
}

func (g *ifGen) Next() (V, bool) {
	if g.branch == nil {
		_, ok := g.cond.Next()
		g.cond.Restart()
		if ok {
			g.branch = g.then
		} else {
			if g.els == nil {
				return nil, false
			}
			g.branch = g.els
		}
	}
	v, ok := g.branch.Next()
	if !ok {
		g.branch = nil
	}
	return v, ok
}

func (g *ifGen) Restart() {
	g.cond.Restart()
	g.then.Restart()
	if g.els != nil {
		g.els.Restart()
	}
	g.branch = nil
}

// IfThen implements `if cond then then else els`; els may be nil, in which
// case a failing condition fails the expression.
func IfThen(cond, then, els Gen) Gen { return &ifGen{cond: cond, then: then, els: els} }

// notGen implements not e: a bounded expression producing at most one
// result (null) per cycle.
type notGen struct {
	e    Gen
	done bool
}

func (g *notGen) Next() (V, bool) {
	if g.done {
		g.done = false
		return nil, false
	}
	_, ok := g.e.Next()
	g.e.Restart()
	if ok {
		return nil, false
	}
	g.done = true
	return value.NullV, true
}

func (g *notGen) Restart() {
	g.e.Restart()
	g.done = false
}

// Not implements `not e`: fails if e succeeds, succeeds with null otherwise.
func Not(e Gen) Gen { return &notGen{e: e} }

// caseGen implements case e of { c1: b1; …; default: bd }.
type caseGen struct {
	subject Gen
	clauses []CaseClause
	deflt   Gen
	branch  Gen
}

// CaseClause pairs a selector generator with a branch body. The selector's
// results are compared to the subject with === (value equivalence).
type CaseClause struct {
	Sel  Gen
	Body Gen
}

func (g *caseGen) Next() (V, bool) {
	if g.branch == nil {
		sv, ok := g.subject.Next()
		g.subject.Restart()
		if !ok {
			return nil, false
		}
		subject := value.Deref(sv)
		for _, c := range g.clauses {
			matched := false
			Each(c.Sel, func(v V) bool {
				if value.Equiv(subject, v) {
					matched = true
					return false
				}
				return true
			})
			c.Sel.Restart()
			if matched {
				g.branch = c.Body
				break
			}
		}
		if g.branch == nil {
			if g.deflt == nil {
				return nil, false
			}
			g.branch = g.deflt
		}
	}
	v, ok := g.branch.Next()
	if !ok {
		g.branch = nil
	}
	return v, ok
}

func (g *caseGen) Restart() {
	g.subject.Restart()
	for _, c := range g.clauses {
		c.Sel.Restart()
		c.Body.Restart()
	}
	if g.deflt != nil {
		g.deflt.Restart()
	}
	g.branch = nil
}

// Case implements the case expression; deflt may be nil.
func Case(subject Gen, clauses []CaseClause, deflt Gen) Gen {
	return &caseGen{subject: subject, clauses: clauses, deflt: deflt}
}
