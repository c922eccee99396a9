package core

import (
	"junicon/internal/value"
)

// product implements e & e' (§2A): for each result of a, iterate b and yield
// b's results. Because generators auto-restart after failure, resuming a
// after b is exhausted re-runs b from the start — the backtracking search of
// goal-directed evaluation.
type product struct {
	a, b    Gen
	aActive bool
}

func (p *product) Next() (V, bool) {
	for {
		if !p.aActive {
			if _, ok := p.a.Next(); !ok {
				return nil, false
			}
			p.aActive = true
		}
		if v, ok := p.b.Next(); ok {
			return v, true
		}
		p.aActive = false
	}
}

func (p *product) Restart() {
	p.a.Restart()
	p.b.Restart()
	p.aActive = false
}

// Product implements the iterator product e & e', the fundamental operator
// embodying both cross-product and conditional evaluation (§2A). With more
// than two operands it associates left.
func Product(gens ...Gen) Gen {
	switch len(gens) {
	case 0:
		return Unit(value.NullV)
	case 1:
		return gens[0]
	}
	g := gens[0]
	for _, h := range gens[1:] {
		g = &product{a: g, b: h}
	}
	return g
}

// inGen implements bound iteration (x in e): each result of e is assigned to
// the reified variable before being yielded, chaining the pieces of a
// flattened primary together (§5A).
type inGen struct {
	v *value.Var
	e Gen
}

func (g *inGen) Next() (V, bool) {
	val, ok := g.e.Next()
	if !ok {
		return nil, false
	}
	d := value.Deref(val)
	g.v.Set(d)
	return val, ok
}

func (g *inGen) Restart() { g.e.Restart() }

// In returns the bound iterator (v in e).
func In(v *value.Var, e Gen) Gen { return &inGen{v: v, e: e} }

// altGen implements alternation e | e' — concatenation of result sequences.
type altGen struct {
	gens []Gen
	i    int
}

func (g *altGen) Next() (V, bool) {
	for g.i < len(g.gens) {
		if v, ok := g.gens[g.i].Next(); ok {
			return v, true
		}
		g.i++
	}
	g.i = 0
	return nil, false
}

func (g *altGen) Restart() {
	for _, h := range g.gens {
		h.Restart()
	}
	g.i = 0
}

// Alt implements alternation e1 | e2 | … .
func Alt(gens ...Gen) Gen {
	if len(gens) == 0 {
		return Empty()
	}
	if len(gens) == 1 {
		return gens[0]
	}
	return &altGen{gens: gens}
}

// limitGen implements e \ n.
type limitGen struct {
	e     Gen
	n     int
	count int
}

func (g *limitGen) Next() (V, bool) {
	if g.count >= g.n {
		g.count = 0
		g.e.Restart()
		return nil, false
	}
	v, ok := g.e.Next()
	if !ok {
		g.count = 0
		return nil, false
	}
	g.count++
	return v, true
}

func (g *limitGen) Restart() {
	g.e.Restart()
	g.count = 0
}

// Limit implements the limitation e \ n: at most n results per cycle.
func Limit(e Gen, n int) Gen {
	if n <= 0 {
		return Empty()
	}
	return &limitGen{e: e, n: n}
}

// seqGen implements the sequence a;b;…;z — each term but the last is
// evaluated once (bounded, result discarded, failure ignored), and iteration
// is delegated to the last term.
type seqGen struct {
	gens  []Gen
	stage int
}

func (g *seqGen) Next() (V, bool) {
	last := len(g.gens) - 1
	for g.stage < last {
		g.gens[g.stage].Next() // bounded evaluation; outcome discarded
		g.gens[g.stage].Restart()
		g.stage++
	}
	v, ok := g.gens[last].Next()
	if !ok {
		g.stage = 0
	}
	return v, ok
}

func (g *seqGen) Restart() {
	for _, h := range g.gens {
		h.Restart()
	}
	g.stage = 0
}

// Sequence implements the familiar a;b;c construct as iterator
// concatenation-with-discard (§2A).
func Sequence(gens ...Gen) Gen {
	switch len(gens) {
	case 0:
		return Unit(value.NullV)
	case 1:
		return gens[0]
	}
	return &seqGen{gens: gens}
}

// repeatGen implements repeated alternation |e: e's sequence over and over,
// failing only when a full cycle of e yields nothing.
type repeatGen struct {
	e        Gen
	produced bool
}

func (g *repeatGen) Next() (V, bool) {
	for {
		if v, ok := g.e.Next(); ok {
			g.produced = true
			return v, true
		}
		if !g.produced {
			return nil, false
		}
		g.produced = false
	}
}

func (g *repeatGen) Restart() {
	g.e.Restart()
	g.produced = false
}

// RepeatAlt implements repeated alternation |e.
func RepeatAlt(e Gen) Gen { return &repeatGen{e: e} }

// rangeGen implements i to j by k over numeric values.
type rangeGen struct {
	lo, hi, by V
	cur        V
	started    bool
}

func (g *rangeGen) Next() (V, bool) {
	if !g.started {
		g.cur = g.lo
		g.started = true
	} else {
		g.cur = value.Add(g.cur, g.by)
	}
	sign := value.NumCompare(g.by, value.NewInt(0))
	if sign == 0 {
		value.Raise(value.ErrDivideByZero, "to-by: zero increment", nil)
	}
	cmp := value.NumCompare(g.cur, g.hi)
	if (sign > 0 && cmp > 0) || (sign < 0 && cmp < 0) {
		g.started = false
		return nil, false
	}
	return g.cur, true
}

func (g *rangeGen) Restart() { g.started = false }

// intRangeGen is the specialized i to j by k over int64 operands: no
// generic numeric dispatch, no big-int checks — the common case of the
// ubiquitous to-by generator, and the source feeding the pipe-throughput
// benchmarks, reduced to an increment, a compare and one boxing. cur is
// primed one step before lo, so Next is branch-minimal: both lo and hi
// are guarded (in Range) to sit at least |by| from the int64 edges, so
// neither the priming subtraction nor the step past hi can overflow.
type intRangeGen struct {
	lo, hi, by int64
	cur        int64
}

func (g *intRangeGen) Next() (V, bool) {
	c := g.cur + g.by
	if (g.by > 0 && c > g.hi) || (g.by < 0 && c < g.hi) {
		g.cur = g.lo - g.by
		return nil, false
	}
	g.cur = c
	return value.IntV(c), true
}

func (g *intRangeGen) Restart() { g.cur = g.lo - g.by }

// Range implements the generator lo to hi by step over already-evaluated
// numeric operands. Use ToBy for generator operands.
func Range(lo, hi, by V) Gen {
	lo = value.MustNumber(lo)
	hi = value.MustNumber(hi)
	if by == nil {
		by = value.NewInt(1)
	}
	by = value.MustNumber(by)
	if li, lok := smallInt(lo); lok {
		if hi, hok := smallInt(hi); hok {
			if bi, bok := smallInt(by); bok && bi != 0 &&
				hi <= maxInt64-absInt64(bi) && hi >= minInt64+absInt64(bi) &&
				li <= maxInt64-absInt64(bi) && li >= minInt64+absInt64(bi) {
				return &intRangeGen{lo: li, hi: hi, by: bi, cur: li - bi}
			}
		}
	}
	return &rangeGen{lo: lo, hi: hi, by: by}
}

const (
	maxInt64 = int64(^uint64(0) >> 1)
	minInt64 = -maxInt64 - 1
)

func absInt64(i int64) int64 {
	if i < 0 {
		return -i
	}
	return i
}

// smallInt reports v as an unpromoted int64 integer.
func smallInt(v V) (int64, bool) {
	i, ok := v.(value.Integer)
	if !ok || i.IsBig() {
		return 0, false
	}
	n, _ := i.Int64()
	return n, true
}

// ToBy implements e1 to e2 by e3 with generator operands: the operands
// themselves are searched as in any Icon operation.
func ToBy(lo, hi, by Gen) Gen {
	if by == nil {
		by = Unit(value.NewInt(1))
	}
	return Op3(func(a, b, c V) Gen { return Range(a, b, c) }, lo, hi, by)
}

// IntRange is a convenience for the ubiquitous i to j.
func IntRange(lo, hi int64) Gen { return Range(value.NewInt(lo), value.NewInt(hi), nil) }
