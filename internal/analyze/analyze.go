// Package analyze is the static analyzer for Junicon syntax trees — the
// semantic checking layer that sits between parsing/normalization and
// execution in the Figure 5 pipeline. Nothing in the original pipeline
// rejects programs that are statically wrong under Icon semantics or the
// calculus of concurrent generators (Figure 1): activating an integer,
// refreshing a pipe, or reading a variable that can never be bound all
// surface only as silent runtime failure. The analyzer finds those
// statically and reports them as structured diagnostics, and computes the
// whole-program facts the evaluators provision pipes from.
//
// Each scope — a procedure body, or the top-level statements, which share
// the global scope — is walked twice:
//
//  1. collect (scope.go) builds the scope's one symbol table: parameters,
//     declared, assigned and static names under Icon's assigned-means-local
//     rule and, for the diagnostics, each name's kinds and the sites where
//     it is read, bound and drained, and the <>/|<>/|> creation sites.
//  2. expr (effects.go), once per fixpoint round and once to cache, computes
//     each node's effects, its result bound and its share of the enclosing
//     procedure's results.
//
// The diagnostics are read off those tables and facts, plus a walk of each
// statement for the checks that need its syntax (dataflow.go, bounded.go,
// concurrency.go) and the pipe graph (pipegraph.go).
//
// Both raw parser output and §5A normal forms (FlatProduct / BindIn /
// TmpRef) are accepted, so the analyzer can gate the interpreter, the
// translator, and the REPL with the same machinery.
package analyze

import (
	"cmp"
	"fmt"
	"io"
	"slices"
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
}

// analyzer carries one diagnostics run: options, the program-level names,
// and the accumulated diagnostics.
type analyzer struct {
	opts    Options
	globals map[string]bool // program-level names: globals, procs, records, classes
	diags   []ranked
	unit    int // the scope or statement being checked
}

// ranked is a diagnostic with its place among those at the same position:
// by unit, then by phase (see phase).
type ranked struct {
	Diag
	key int
}

// Program analyzes a whole translation unit and returns its diagnostics
// sorted by source position.
func Program(p *ast.Program, opts Options) []Diag {
	diags, _ := ProgramFacts(p, opts)
	return diags
}

// ProgramFacts runs the full analysis, returning both the diagnostics and
// the computed whole-program facts. The facts are computed from scratch,
// the whole program as one batch: the reference that facts grown batch by
// batch (Facts.ExtendDecls, the evaluators' path) must equal.
func ProgramFacts(p *ast.Program, opts Options) ([]Diag, *Facts) {
	facts := NewFacts()
	facts.vet = true
	facts.ExtendDecls(p.Decls)

	a := &analyzer{opts: opts}
	roots := topLevelRoots(p)
	top := topScope(roots)
	a.collectGlobals(p, top)
	stmt := 0
	for _, d := range p.Decls {
		switch x := d.(type) {
		case *ast.ProcDecl:
			a.proc(facts, x)
		case *ast.ClassDecl:
			for _, m := range x.Methods {
				a.proc(facts, m)
			}
		case *ast.RecordDecl, *ast.GlobalDecl:
			// declaration only
		default:
			a.check(top, x, top.rootSites(stmt))
			stmt++
		}
	}
	a.unit++
	a.pipeGraph(top, roots, facts)
	a.truncatedEffects(p, facts)

	slices.SortStableFunc(a.diags, func(x, y ranked) int {
		return cmp.Or(cmp.Compare(x.Pos.Line, y.Pos.Line), cmp.Compare(x.Pos.Col, y.Pos.Col), cmp.Compare(x.key, y.key))
	})
	var out []Diag
	for _, d := range a.diags {
		out = append(out, d.Diag)
	}
	return out, facts
}

// Expr analyzes a standalone expression (the REPL's unit of input) as a
// bounded top-level statement.
func Expr(n ast.Node, opts Options) []Diag {
	p := &ast.Program{Decls: []ast.Node{n}}
	p.P = n.Pos()
	return Program(p, opts)
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

func (a *analyzer) diag(pos ast.Pos, code string, sev Severity, format string, args ...any) {
	d := Diag{Pos: pos, Code: code, Severity: sev, Msg: fmt.Sprintf(format, args...)}
	a.diags = append(a.diags, ranked{d, a.unit*8 + phase(code)})
}

// phase orders the diagnostics one unit reports at one position, whatever
// order the walks find them in: dataflow, then boundedness, then the
// concurrency checks — the order -vet's output and goldens pin.
func phase(code string) int {
	switch code {
	case CodeNeverAssigned:
		return 0
	case CodeNonVariable:
		return 1
	case CodeUnreachable:
		return 2
	case CodeDeadAlternative, CodeBadLimit, CodeZeroStep:
		return 3
	}
	return 4
}

// collectGlobals gathers program-level names: explicit globals, procedure
// and record and class declarations, class fields (which the embedding
// flattens into globals), and the names top-level statements bind (they
// execute in the global scope).
func (a *analyzer) collectGlobals(p *ast.Program, top *scope) {
	a.globals = map[string]bool{}
	for name, s := range top.syms {
		if s&(symAssigned|symDeclared) != 0 {
			a.globals[name] = true
		}
	}
	for _, d := range p.Decls {
		switch x := d.(type) {
		case *ast.GlobalDecl:
			for _, n := range x.Names {
				a.globals[n] = true
			}
		case *ast.ProcDecl:
			a.globals[x.Name] = true
		case *ast.RecordDecl:
			a.globals[x.Name] = true
		case *ast.ClassDecl:
			a.globals[x.Name] = true
			for _, f := range x.Fields {
				a.globals[f] = true
			}
			for _, m := range x.Methods {
				a.globals[m.Name] = true
			}
		}
	}
}

// proc checks one procedure, through the table the facts were computed
// with (a losing duplicate definition has none: it gets its own).
func (a *analyzer) proc(facts *Facts, p *ast.ProcDecl) {
	sc := facts.ctx[p]
	if sc == nil {
		sc = newScope(p, facts.globals, true)
	}
	a.check(sc, p.Body, sc.sites)
}

// check runs the per-statement checks over one root of a scope: a
// procedure body, or one top-level statement with its sites. The body is
// checked as a whole block: statement boundedness and unreachability are
// block properties.
func (a *analyzer) check(sc *scope, root ast.Node, sites []site) {
	a.unit++
	a.reads(sc, sites)
	a.bounded(root, true)
	a.local(sc, root)
}

// bound reports whether name can ever be bound in scope sc: parameter,
// declared local, assigned name, program global, builtin, or host-known.
func (a *analyzer) bound(sc *scope, name string) bool {
	return sc.has(name, symParam|symDeclared|symAssigned) || a.globals[name] || a.known(name)
}

// known reports whether name resolves outside the analyzed program.
func (a *analyzer) known(name string) bool {
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
