package core

import (
	"io"

	"junicon/internal/value"
)

// String scanning — the application domain the paper singles out ("such
// search has particular application in string processing, the forte of
// Icon and Unicon", §2A). A scanning expression e1 ? e2 establishes a
// scanning environment (&subject = e1, &pos = 1) around the evaluation of
// e2; the matching functions tab and move change &pos reversibly, so
// backtracking search undoes partial matches.
//
// The environment is dynamically scoped with Icon's swap discipline: while
// e2 is suspended, the outer environment is restored, and resuming e2
// re-installs its own — implemented directly over the explicit Next
// protocol. Environments are per ScanHolder; the interpreter allocates one
// holder per interpreter instance (Unicon gives each thread its own
// &subject, so per-evaluation-context state is the faithful model).

// ScanState is one scanning environment: &subject and &pos (1-based,
// position-between-characters).
type ScanState struct {
	Subject string
	Pos     int
}

// ScanHolder carries the current scanning environment of one evaluation
// context.
type ScanHolder struct {
	cur *ScanState
}

// NewScanHolder returns a holder with no active scanning environment.
func NewScanHolder() *ScanHolder { return &ScanHolder{} }

// Current returns the active environment, or nil outside any scan.
func (h *ScanHolder) Current() *ScanState { return h.cur }

// Swap installs s as the active environment and returns the previous one —
// the primitive behind Icon's save/restore discipline around scanning
// expressions and their suspensions.
func (h *ScanHolder) Swap(s *ScanState) *ScanState {
	old := h.cur
	h.cur = s
	return old
}

// SubjectVar returns &subject over h: an assignable keyword — assigning it
// establishes a new subject and resets &pos to 1 (Icon semantics). Outside
// a scan it reads as the empty string.
func SubjectVar(h *ScanHolder) *value.Var {
	return value.NewVar(
		func() value.V {
			if st := h.Current(); st != nil {
				return value.String(st.Subject)
			}
			return value.String("")
		},
		func(v value.V) {
			st := h.Current()
			if st == nil {
				value.Raise(value.ErrString, "&subject assigned outside a scanning expression", nil)
			}
			st.Subject = string(value.MustString(v))
			st.Pos = 1
		},
	)
}

// PosVar returns &pos over h: assignable, nonpositive positions counting
// from the end; outside a scan it reads as 1.
func PosVar(h *ScanHolder) *value.Var {
	return value.NewVar(
		func() value.V {
			if st := h.Current(); st != nil {
				return value.NewInt(int64(st.Pos))
			}
			return value.NewInt(1)
		},
		func(v value.V) {
			st := h.Current()
			if st == nil {
				value.Raise(value.ErrString, "&pos assigned outside a scanning expression", nil)
			}
			p := value.MustInt(v)
			if p <= 0 {
				p = len(st.Subject) + 1 + p
			}
			if p < 1 || p > len(st.Subject)+1 {
				value.Raise(value.ErrIndex, "&pos out of range", v)
			}
			st.Pos = p
		},
	)
}

// need returns the active environment, raising Icon error 103 outside a
// scan (as Icon does when &subject-defaulting functions run with no
// subject — &subject defaults to the empty string; we surface the
// practically-always-a-bug case as a failure instead).
func (h *ScanHolder) need() (*ScanState, bool) {
	if h.cur == nil {
		return nil, false
	}
	return h.cur, true
}

// scanGen implements e1 ? e2 over already-searched operands: body is
// evaluated inside a fresh environment per subject value.
type scanGen struct {
	h       *ScanHolder
	subject Gen
	mkBody  func() Gen

	body  Gen
	inner *ScanState
}

func (g *scanGen) Next() (V, bool) {
	for {
		if g.body == nil {
			sv, ok := g.subject.Next()
			if !ok {
				return nil, false
			}
			s, oks := value.ToString(value.Deref(sv))
			if !oks {
				value.Raise(value.ErrString, "?: string subject expected", value.Deref(sv))
			}
			g.inner = &ScanState{Subject: string(s), Pos: 1}
			g.body = g.mkBody()
		}
		v, ok := g.step()
		if ok {
			return v, true
		}
		// Body exhausted for this subject: resume the subject operand.
		g.body = nil
		g.inner = nil
	}
}

// step runs one body step inside the scan environment. The outer
// environment comes back however the step ends — a result, failure, or a
// break or runtime error unwinding through it.
func (g *scanGen) step() (V, bool) {
	outer := g.h.cur
	g.h.cur = g.inner
	defer func() { g.h.cur = outer }()
	v, ok := g.body.Next()
	if ok {
		// Dereference inside the environment: results that are
		// environment-dependent variables (&subject, &pos) must be
		// resolved before the swap-out makes them read another scan.
		v = value.Deref(v)
	}
	return v, ok
}

func (g *scanGen) Restart() {
	g.subject.Restart()
	g.body = nil
	g.inner = nil
}

// ScanExpr builds e1 ? e2. The body is compiled lazily per subject value
// (mkBody), so each scan cycle runs a fresh body over a fresh environment.
func ScanExpr(h *ScanHolder, subject Gen, mkBody func() Gen) Gen {
	return &scanGen{h: h, subject: subject, mkBody: mkBody}
}

// normPos converts an Icon position (possibly nonpositive) to 1-based,
// validating range; ok is false for out-of-range positions (failure).
// Positions run 1..n+1; 0 names the position after the last character.
func normPos(p, n int) (int, bool) {
	if p <= 0 {
		p = n + 1 + p
	}
	if p < 1 || p > n+1 {
		return 0, false
	}
	return p, true
}

// tabGen implements tab(i): set &pos to i, producing the substring between
// the old and new positions; restores &pos when resumed — the data-driven
// reversible effect of §5B's "optionally reversible" iteration.
type tabGen struct {
	h     *ScanHolder
	pos   Gen // position operand
	saved int
	live  bool
}

func (g *tabGen) Next() (V, bool) {
	st, ok := g.h.need()
	if !ok {
		return nil, false
	}
	if g.live {
		// Resumption: restore and try the next position operand value.
		st.Pos = g.saved
		g.live = false
	}
	pv, ok := g.pos.Next()
	if !ok {
		return nil, false
	}
	p, ok := normPos(value.MustInt(value.Deref(pv)), len(st.Subject))
	if !ok {
		return g.Next() // out-of-range position: try next operand value
	}
	g.saved = st.Pos
	g.live = true
	lo, hi := st.Pos, p
	if lo > hi {
		lo, hi = hi, lo
	}
	st.Pos = p
	return value.String(st.Subject[lo-1 : hi-1]), true
}

func (g *tabGen) Restart() {
	// Restart is a fresh cycle, not a resumption: Icon undoes tab's effect
	// only when tab is resumed (handled in Next); a bounded tab that is
	// never resumed keeps its position change.
	g.live = false
	g.pos.Restart()
}

// Tab builds tab(i) over a position operand.
func Tab(h *ScanHolder, pos Gen) Gen { return &tabGen{h: h, pos: pos} }

// moveGen implements move(i): advance &pos by i (may be negative),
// producing the traversed substring; reversible like tab.
type moveGen struct {
	h     *ScanHolder
	dist  Gen
	saved int
	live  bool
}

func (g *moveGen) Next() (V, bool) {
	st, ok := g.h.need()
	if !ok {
		return nil, false
	}
	if g.live {
		st.Pos = g.saved
		g.live = false
	}
	dv, ok := g.dist.Next()
	if !ok {
		return nil, false
	}
	d := value.MustInt(value.Deref(dv))
	target := st.Pos + d
	if target < 1 || target > len(st.Subject)+1 {
		return g.Next()
	}
	g.saved = st.Pos
	g.live = true
	lo, hi := st.Pos, target
	if lo > hi {
		lo, hi = hi, lo
	}
	st.Pos = target
	return value.String(st.Subject[lo-1 : hi-1]), true
}

func (g *moveGen) Restart() {
	// See tabGen.Restart: no undo on fresh cycles.
	g.live = false
	g.dist.Restart()
}

// Move builds move(i) over a distance operand.
func Move(h *ScanHolder, dist Gen) Gen { return &moveGen{h: h, dist: dist} }

// ScanBuiltins returns the scanning function library bound to a holder:
// tab, move, pos, and &subject-defaulting forms of the string analysis
// functions (find, upto, many, any, match with the subject omitted).
func ScanBuiltins(h *ScanHolder) map[string]value.V {
	b := map[string]value.V{}

	b["tab"] = value.NewProc("tab", 1, func(args ...value.V) Gen {
		return Tab(h, Values(args...))
	})
	b["move"] = value.NewProc("move", 1, func(args ...value.V) Gen {
		return Move(h, Values(args...))
	})
	b["pos"] = ValProc("pos", 1, func(args []value.V) value.V {
		st, ok := h.need()
		if !ok {
			return nil
		}
		p, ok := normPos(value.MustInt(args[0]), len(st.Subject))
		if !ok || p != st.Pos {
			return nil
		}
		return value.IntV(int64(st.Pos))
	})

	// Subject-defaulting analysis generators: when the subject argument is
	// null, s defaults to &subject and i to &pos (Icon's convention). The
	// environment is read when the activation first runs.
	subjectDefault := func(name string, fn func(st *ScanState, arg value.V) func() (value.V, bool)) *value.Proc {
		return StepProc(name, 2, func(args []value.V) func() (value.V, bool) {
			st, ok := h.need()
			if !ok {
				return func() (value.V, bool) { return nil, false }
			}
			return fn(st, value.Deref(args[0]))
		})
	}
	// once yields v (when it is not nil) and then fails.
	once := func(v value.V) func() (value.V, bool) {
		return func() (value.V, bool) {
			r := v
			v = nil
			return r, r != nil
		}
	}
	b["tabMatch"] = subjectDefault("tabMatch", func(st *ScanState, arg value.V) func() (value.V, bool) {
		// =s is tab(match(s)) in Icon; provided as a function here.
		pat := string(value.MustString(arg))
		old, moved := 0, false
		return func() (value.V, bool) {
			if moved {
				st.Pos = old // reversible on resumption
				moved = false
				return nil, false
			}
			if st.Pos-1+len(pat) > len(st.Subject) || st.Subject[st.Pos-1:st.Pos-1+len(pat)] != pat {
				return nil, false
			}
			old, moved = st.Pos, true
			st.Pos += len(pat)
			return value.String(pat), true
		}
	})
	b["matchAt"] = subjectDefault("matchAt", func(st *ScanState, arg value.V) func() (value.V, bool) {
		// match(s) against &subject at &pos: yields the position after the
		// match without moving &pos.
		pat := string(value.MustString(arg))
		if st.Pos-1+len(pat) <= len(st.Subject) && st.Subject[st.Pos-1:st.Pos-1+len(pat)] == pat {
			return once(value.IntV(int64(st.Pos + len(pat))))
		}
		return once(nil)
	})
	b["findAt"] = subjectDefault("findAt", func(st *ScanState, arg value.V) func() (value.V, bool) {
		pat := string(value.MustString(arg))
		return hits(st.Pos-1, func() int { return len(st.Subject) - len(pat) + 1 }, func(i int) bool {
			return pat != "" && st.Subject[i:i+len(pat)] == pat
		})
	})
	b["uptoAt"] = subjectDefault("uptoAt", func(st *ScanState, arg value.V) func() (value.V, bool) {
		c := value.MustCset(arg)
		return hits(st.Pos-1, func() int { return len(st.Subject) }, func(i int) bool {
			return c.Contains(rune(st.Subject[i]))
		})
	})
	b["manyAt"] = subjectDefault("manyAt", func(st *ScanState, arg value.V) func() (value.V, bool) {
		c := value.MustCset(arg)
		i := st.Pos - 1
		for i < len(st.Subject) && c.Contains(rune(st.Subject[i])) {
			i++
		}
		if i >= st.Pos {
			return once(value.IntV(int64(i + 1)))
		}
		return once(nil)
	})
	b["anyAt"] = subjectDefault("anyAt", func(st *ScanState, arg value.V) func() (value.V, bool) {
		c := value.MustCset(arg)
		if st.Pos-1 < len(st.Subject) && c.Contains(rune(st.Subject[st.Pos-1])) {
			return once(value.IntV(int64(st.Pos + 1)))
		}
		return once(nil)
	})
	return b
}

// Library is the builtin library an embedded program resolves names in:
// Builtins writing to w, the scanning functions over h, and the string
// analysis functions defaulting their subject to &subject and their start
// to &pos when the subject argument is omitted or null (Icon's convention
// inside scanning expressions). The interpreter and translated programs
// both bind this one table.
func Library(w io.Writer, h *ScanHolder) map[string]value.V {
	lib := Builtins(w)
	scanLib := ScanBuiltins(h)
	for k, v := range scanLib {
		lib[k] = v
	}
	for name, atName := range map[string]string{
		"find": "findAt", "upto": "uptoAt", "many": "manyAt",
		"any": "anyAt", "match": "matchAt",
	} {
		base := lib[name].(*value.Proc)
		at := scanLib[atName].(*value.Proc)
		lib[name] = value.NewProc(name, -1, func(args ...value.V) Gen {
			if len(args) < 2 || value.IsNull(value.Deref(args[1])) {
				var first value.V = value.NullV
				if len(args) > 0 {
					first = args[0]
				}
				return at.Call(first)
			}
			return base.Call(args...)
		})
	}
	return lib
}
