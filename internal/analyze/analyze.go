// Package analyze is a multi-pass static analyzer for Junicon syntax
// trees — the semantic checking layer that sits between parsing/
// normalization and execution in the Figure 5 pipeline. Nothing in the
// original pipeline rejects programs that are statically wrong under Icon
// semantics or the calculus of concurrent generators (Figure 1): activating
// an integer, refreshing a pipe, or reading a variable that can never be
// bound all surface only as silent runtime failure. The analyzer finds
// those statically and reports them as structured diagnostics.
//
// The analyzer runs four passes over a program:
//
//  1. scope      — collects the symbol table: global declarations,
//     procedure parameters and locals, Icon's assigned-means-local rule.
//  2. dataflow   — per-scope goal-directed dataflow: reads of variables
//     that can never be bound (JV001), assignment to non-variable
//     operands (JV002), unreachable statements (JV010).
//  3. bounded    — boundedness-aware sequence analysis: alternation arms
//     unreachable after an expression that cannot fail (JV003),
//     non-positive limits (JV004), zero to-by increments (JV009).
//  4. concurrency — the Figure 1 calculus: activation of values that are
//     statically not co-expressions (JV005), refresh of pipes, which the
//     calculus leaves undefined (JV006), self-activating pipes that
//     degenerate to deadlock under bounded buffers (JV007), and mutations
//     of snapshotted co-expression locals (JV008).
//
// Both raw parser output and §5A normal forms (FlatProduct / BindIn /
// TmpRef) are accepted, so the analyzer can gate the interpreter, the
// translator, and the REPL with the same machinery.
package analyze

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"junicon/internal/ast"
	"junicon/internal/core"
)

// Severity classifies a diagnostic.
type Severity int

const (
	// Warning marks code that is almost surely not what the author meant
	// but has defined runtime behaviour.
	Warning Severity = iota
	// Error marks code that is guaranteed to raise a runtime error or is
	// undefined under the calculus of concurrent generators.
	Error
)

// String renders the severity in the conventional lowercase form.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diag is one structured diagnostic.
type Diag struct {
	Pos      ast.Pos
	Code     string // stable code, e.g. "JV001"
	Severity Severity
	Msg      string
}

// String renders the diagnostic as "line:col: code: severity: message".
func (d Diag) String() string {
	return fmt.Sprintf("%d:%d: %s: %s: %s", d.Pos.Line, d.Pos.Col, d.Code, d.Severity, d.Msg)
}

// Diagnostic codes. Every code has a fixture pair under testdata/ — one
// program that triggers it and one near-identical program that does not.
const (
	CodeNeverAssigned   = "JV001" // read of a variable that can never be bound
	CodeNonVariable     = "JV002" // assignment to a non-variable operand
	CodeDeadAlternative = "JV003" // alternation arm unreachable in bounded context
	CodeBadLimit        = "JV004" // limit with a provably non-positive bound
	CodeNotCoexpr       = "JV005" // activation of a statically non-co-expression
	CodePipeRefresh     = "JV006" // ^ applied to a pipe (undefined in the calculus)
	CodeSelfActivation  = "JV007" // pipe activates itself: bounded buffers deadlock
	CodeShadowMutation  = "JV008" // co-expression mutates a snapshotted variable
	CodeZeroStep        = "JV009" // to-by with zero increment
	CodeUnreachable     = "JV010" // statement unreachable after a control transfer

	// Codes of the interprocedural pipe-graph pass (pipegraph.go).
	CodePipeCycle             = "JV011" // pipes activate each other in a cycle: deadlock
	CodeUnboundedAccumulation = "JV012" // unbounded producer feeds unbounded accumulation
	CodeDeadEngine            = "JV013" // generator created but never resumed
	CodeTruncatedEffects      = "JV014" // limit drops side effects of an effectful generator
)

// Options configures an analysis run.
type Options struct {
	// Known reports names bound outside the analyzed source — interpreter
	// globals in the REPL, host-defined values in embedding scenarios.
	// May be nil.
	Known func(name string) bool
	// NativeFacts reports declared fact summaries for host natives invoked
	// with ::name(...). May be nil: undeclared natives are the top of the
	// effect lattice (EffUnknown), which blocks fusion across them.
	NativeFacts func(name string) (GenFacts, bool)
}

// Analyzer carries one run's state: options, the collected symbol table,
// and the accumulated diagnostics.
type Analyzer struct {
	opts    Options
	globals map[string]bool // program-level names: globals, procs, records, classes
	diags   []Diag
}

// Program analyzes a whole translation unit and returns its diagnostics
// sorted by source position.
func Program(p *ast.Program, opts Options) []Diag {
	diags, _ := ProgramFacts(p, opts)
	return diags
}

// ProgramFacts runs the full analysis — the per-scope passes of PR 1 plus
// the interprocedural fact engine and the pipe-graph pass — returning both
// the diagnostics and the computed whole-program facts. The facts are
// computed from scratch, the whole program as one batch: the reference
// that facts grown batch by batch (Facts.ExtendDecls, the evaluators'
// path) must equal.
func ProgramFacts(p *ast.Program, opts Options) ([]Diag, *Facts) {
	a := &Analyzer{opts: opts}
	a.collectGlobals(p)
	facts := NewFacts()
	facts.ExtendDecls(p.Decls, opts)

	// Top-level statements execute in the shared global scope: analyze
	// them as one scope whose locals are the globals themselves.
	top := newScopeFrom(a, p)
	for _, d := range p.Decls {
		switch x := d.(type) {
		case *ast.ProcDecl:
			a.proc(x)
		case *ast.ClassDecl:
			for _, m := range x.Methods {
				a.proc(m)
			}
		case *ast.RecordDecl, *ast.GlobalDecl:
			// declaration only
		default:
			a.statement(top, x)
		}
	}
	a.pipeGraph(p, facts)

	sort.SliceStable(a.diags, func(i, j int) bool {
		pi, pj := a.diags[i].Pos, a.diags[j].Pos
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Col < pj.Col
	})
	return a.diags, facts
}

// Expr analyzes a standalone expression (the REPL's unit of input) as a
// bounded top-level statement.
func Expr(n ast.Node, opts Options) []Diag {
	diags, _ := ExprFacts(n, opts)
	return diags
}

// ExprFacts analyzes a standalone expression and returns its facts along
// with the diagnostics.
func ExprFacts(n ast.Node, opts Options) ([]Diag, *Facts) {
	p := &ast.Program{Decls: []ast.Node{n}}
	p.P = n.Pos()
	return ProgramFacts(p, opts)
}

// HasErrors reports whether any diagnostic is an Error.
func HasErrors(diags []Diag) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Fprint writes diagnostics one per line, prefixing each with path (and
// offsetting lines by lineOffset, for regions embedded in mixed files).
func Fprint(w io.Writer, path string, lineOffset int, diags []Diag) {
	for _, d := range diags {
		shifted := d
		shifted.Pos.Line += lineOffset
		if path != "" {
			fmt.Fprintf(w, "%s:%s\n", path, shifted)
		} else {
			fmt.Fprintln(w, shifted)
		}
	}
}

func (a *Analyzer) diag(pos ast.Pos, code string, sev Severity, format string, args ...any) {
	a.diags = append(a.diags, Diag{Pos: pos, Code: code, Severity: sev, Msg: fmt.Sprintf(format, args...)})
}

// proc runs the per-scope passes over one procedure. The body is analyzed
// as a whole block: statement boundedness and unreachability are block
// properties.
func (a *Analyzer) proc(p *ast.ProcDecl) {
	sc := newScope(a, p)
	a.statement(sc, p.Body)
}

// statement runs the per-scope passes over one statement of a scope.
func (a *Analyzer) statement(sc *scope, n ast.Node) {
	a.dataflow(sc, n)
	a.bounded(sc, n, true)
	a.concurrency(sc, n)
}

// known reports whether name resolves outside the analyzed program.
func (a *Analyzer) known(name string) bool {
	if builtinNames()[name] {
		return true
	}
	return a.opts.Known != nil && a.opts.Known(name)
}

// builtinNames is the name set of the kernel's builtin library (including
// the scanning functions), computed once.
var builtinNames = sync.OnceValue(func() map[string]bool {
	names := map[string]bool{}
	for k := range core.Builtins(io.Discard) {
		names[k] = true
	}
	for k := range core.ScanBuiltins(core.NewScanHolder()) {
		names[k] = true
	}
	return names
})
