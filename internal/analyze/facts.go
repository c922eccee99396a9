package analyze

import (
	"fmt"
	"sort"
	"strings"

	"junicon/internal/ast"
)

// This file defines the whole-program fact lattice the interprocedural
// engine computes (effects.go) and its consumers read: per-generator
// effect summaries and yield-count bounds. The diagnostics only *warn*
// from them (JV012, JV014); the evaluators additionally *provision* |>
// sites from them (provision.go) and the VM dispatches calls to pure
// ≤1-yield procedures directly. The semtest lanes under WithOptimize and
// WithVM are the executable proof that none of this can change a trace.

// Effects is the effect summary of a generator expression: which classes
// of observable action evaluating (and re-evaluating) it may perform. The
// lattice is a bitset join; the empty set is pure.
type Effects uint8

const (
	// EffReadsGlobals marks reads of program globals (or host-known names).
	EffReadsGlobals Effects = 1 << iota
	// EffWritesGlobals marks assignments to program globals.
	EffWritesGlobals
	// EffHeap marks mutation of reachable structures: subscript/field
	// assignment, put/push/insert/delete, scanning-state movement.
	EffHeap
	// EffIO marks input/output: write, writes, read, reads, stop.
	EffIO
	// EffRandom marks dependence on the random stream (?x): re-evaluation
	// may yield a different sequence.
	EffRandom
	// EffControl marks non-local control transfer (break/next/return/
	// suspend/fail appearing inside the expression): the expression cannot
	// be re-driven mechanically.
	EffControl
	// EffUnknown marks calls the analysis cannot resolve — host natives
	// without declared facts, calls through computed values, activation of
	// arbitrary co-expressions. Top of the lattice.
	EffUnknown
	// EffUndo marks an effect the expression takes back when it is resumed
	// (x <- e, x <-> y): its last result still has a resumption that
	// matters, however few results it yields.
	EffUndo
)

// EffPure is the bottom of the effect lattice.
const EffPure Effects = 0

// Fusable reports whether the runtime may re-order, elide or inline
// evaluations of the expression without changing any trace: no writes, no
// IO, no randomness, no control transfer, nothing undone on resumption,
// nothing unknown. Reads of globals are permitted — a read elided on a
// backtracking path that can no longer succeed is unobservable.
func (e Effects) Fusable() bool {
	const barrier = EffWritesGlobals | EffHeap | EffIO | EffRandom | EffControl | EffUnknown | EffUndo
	return e&barrier == 0
}

// String renders the summary as a compact comma-joined set ("pure" when
// empty) — the form the -facts dump and the tests pin.
func (e Effects) String() string {
	if e == EffPure {
		return "pure"
	}
	var parts []string
	for _, f := range []struct {
		bit  Effects
		name string
	}{
		{EffReadsGlobals, "reads-globals"},
		{EffWritesGlobals, "writes-globals"},
		{EffHeap, "mutates-heap"},
		{EffIO, "io"},
		{EffRandom, "random"},
		{EffControl, "control"},
		{EffUnknown, "unknown"},
		{EffUndo, "undo-on-resume"},
	} {
		if e&f.bit != 0 {
			parts = append(parts, f.name)
		}
	}
	return strings.Join(parts, ",")
}

// Bound markers for yield-count maxima that are not small constants.
const (
	// BoundFinite marks a yield count that is statically finite but of
	// unknown magnitude (promotion of a collection, a to-by range with
	// non-constant operands).
	BoundFinite = -1
	// BoundUnbounded marks a yield count with no static bound (repeated
	// alternation, suspension inside a while/repeat loop, recursion).
	BoundUnbounded = -2
)

// maxExact is the widening threshold: exact bounds beyond it collapse to
// BoundFinite so the interprocedural fixpoint terminates.
const maxExact = 4096

// Bound is a yield-count interval [Min, Max] per evaluation cycle. Max is
// either an exact count (>= 0), BoundFinite, or BoundUnbounded — extending
// the per-scope boundedness lattice of JV003/JV004 across procedure calls.
type Bound struct {
	Min int
	Max int
}

func exactly(n int) Bound { return Bound{Min: n, Max: n} }

var (
	boundNone      = Bound{0, 0}
	boundOne       = Bound{1, 1}
	boundOpt       = Bound{0, 1}
	boundFinite    = Bound{0, BoundFinite}
	boundUnbounded = Bound{0, BoundUnbounded}
)

// AtMost reports whether the cycle provably yields no more than n results.
func (b Bound) AtMost(n int) bool { return b.Max >= 0 && b.Max <= n }

// CannotFail reports whether the expression provably yields at least once.
func (b Bound) CannotFail() bool { return b.Min >= 1 }

// String renders the bound: "0", "1", "=N", "≤N", "finite", "unbounded".
func (b Bound) String() string {
	switch {
	case b.Max == BoundUnbounded:
		return "unbounded"
	case b.Max == BoundFinite:
		return "finite"
	case b.Min == b.Max:
		return fmt.Sprintf("=%d", b.Max)
	default:
		return fmt.Sprintf("%d..%d", b.Min, b.Max)
	}
}

// normMax collapses over-threshold exact maxima (widening).
func normMax(m int) int {
	if m >= 0 && m > maxExact {
		return BoundFinite
	}
	return m
}

// maxRank orders maxima for joins: exact < finite < unbounded.
func maxRank(m int) int {
	switch m {
	case BoundUnbounded:
		return 2
	case BoundFinite:
		return 1
	default:
		return 0
	}
}

// joinMax is the lattice join of two maxima.
func joinMax(a, b int) int {
	if maxRank(a) != maxRank(b) {
		if maxRank(a) > maxRank(b) {
			return a
		}
		return b
	}
	if a > b {
		return normMax(a)
	}
	return normMax(b)
}

// addMax sums maxima (sequence/alternation composition).
func addMax(a, b int) int {
	if maxRank(a) > 0 || maxRank(b) > 0 {
		return joinMax(a, b)
	}
	return normMax(a + b)
}

// mulMax multiplies maxima (product composition).
func mulMax(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if maxRank(a) > 0 || maxRank(b) > 0 {
		return joinMax(a, b)
	}
	return normMax(a * b)
}

// Join is the lattice join (alternation of control paths).
func (b Bound) Join(o Bound) Bound {
	min := b.Min
	if o.Min < min {
		min = o.Min
	}
	return Bound{Min: min, Max: joinMax(b.Max, o.Max)}
}

// Add composes sequential contributions (both happen, counts sum).
func (b Bound) Add(o Bound) Bound {
	min := b.Min + o.Min
	if min > maxExact {
		min = maxExact
	}
	return Bound{Min: min, Max: addMax(b.Max, o.Max)}
}

// Mul composes product contributions: each result of b re-runs o.
func (b Bound) Mul(o Bound) Bound {
	min := b.Min * o.Min
	if min > maxExact {
		min = maxExact
	}
	return Bound{Min: min, Max: mulMax(b.Max, o.Max)}
}

// Cap limits the interval to at most n results (e \ n).
func (b Bound) Cap(n int) Bound {
	if n < 0 {
		n = 0
	}
	out := b
	if out.Min > n {
		out.Min = n
	}
	if maxRank(out.Max) > 0 || out.Max > n {
		out.Max = n
	}
	return out
}

// GenFacts is the computed fact record of one generator expression.
type GenFacts struct {
	Effects Effects
	Yields  Bound
}

// String renders the record for the -facts dump.
func (g GenFacts) String() string {
	return fmt.Sprintf("effects=%s yields=%s", g.Effects, g.Yields)
}

// ProcFacts is the interprocedural summary of one procedure: the facts of
// one invocation's result sequence.
type ProcFacts struct {
	Name string
	GenFacts
	Recursive bool
}

// Facts is the whole-program fact table: procedure summaries from the
// interprocedural fixpoint plus a node cache filled on the final pass,
// holding the nodes consumers ask about by identity — |> bodies and limit
// operands. It grows with the program: ExtendDecls adds a batch of
// declarations, ExtendExpr one evaluated expression.
type Facts struct {
	procs map[string]*ProcFacts
	nodes map[ast.Node]GenFacts
	// globals is every name declared global so far (global declarations
	// and class fields): never a procedure's local, however it is used.
	globals map[string]bool
	// decls is every procedure analyzed so far, one per name, in load
	// order — what a from-scratch recomputation runs over — with the call
	// graph over them and each one's symbol table.
	decls []*ast.ProcDecl
	cg    *callGraph
	ctx   map[*ast.ProcDecl]*scope
	// vet makes the symbol tables the diagnostics' (ProgramFacts): with
	// kinds and sites, which the evaluators' load path does not pay for.
	vet bool
	// exprNodes is the node cache of what was analyzed last to be
	// evaluated at once — one ExtendExpr expression, or the top-level
	// statements of one ExtendDecls batch — replaced wholesale on the next
	// call. Kept apart from nodes so a long-lived interpreter evaluating
	// many expressions does not grow the persistent cache without bound —
	// each parsed tree has fresh node identities, so entries for earlier
	// evaluations could never be looked up again.
	exprNodes map[ast.Node]GenFacts
}

// NewFacts returns the fact table of the empty program.
func NewFacts() *Facts {
	return &Facts{
		procs:   map[string]*ProcFacts{},
		nodes:   map[ast.Node]GenFacts{},
		globals: map[string]bool{},
		cg:      newCallGraph(),
		ctx:     map[*ast.ProcDecl]*scope{},
	}
}

// Proc returns the summary of a named procedure.
func (f *Facts) Proc(name string) (ProcFacts, bool) {
	if f == nil {
		return ProcFacts{}, false
	}
	p, ok := f.procs[name]
	if !ok {
		return ProcFacts{}, false
	}
	return *p, true
}

// At returns the cached facts of a node of the analyzed program (by
// identity): a |> body or the left operand of a limit.
func (f *Facts) At(n ast.Node) (GenFacts, bool) {
	if f == nil {
		return GenFacts{}, false
	}
	if g, ok := f.nodes[n]; ok {
		return g, true
	}
	g, ok := f.exprNodes[n]
	return g, ok
}

// ProcNames returns the summarized procedure names, sorted.
func (f *Facts) ProcNames() []string {
	if f == nil {
		return nil
	}
	names := make([]string, 0, len(f.procs))
	for n := range f.procs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Fdump writes the per-procedure fact table one line per procedure — the
// output of junicon -vet -facts.
func (f *Facts) Fdump(w interface{ Write([]byte) (int, error) }) {
	for _, name := range f.ProcNames() {
		p := f.procs[name]
		rec := ""
		if p.Recursive {
			rec = " recursive"
		}
		fmt.Fprintf(w, "%s: %s%s\n", name, p.GenFacts, rec)
	}
}
