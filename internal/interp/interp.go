// Package interp is the interpreter of the embedding pipeline — the
// interactive path that in the paper executes on a Groovy script engine
// (§6), here executing on the core package. Under WithVM it compiles all
// it loads and evaluates to bytecode run in the vm package's frames;
// without WithVM its tree walk runs (raw or normalized) Junicon syntax
// trees directly against the goal-directed kernel — the reference the
// differential tests hold compiled code to.
//
// It also hosts the interoperability registry: Go functions registered as
// natives are invoked with the :: syntax of §4, and their results are
// promoted to singleton iterators so they participate in goal-directed
// evaluation seamlessly.
package interp

import (
	"fmt"
	"io"
	"os"

	"junicon/internal/analyze"
	"junicon/internal/ast"
	"junicon/internal/core"
	"junicon/internal/parser"
	"junicon/internal/transform"
	"junicon/internal/value"
	"junicon/internal/vm"
)

// Env is a lexical scope chain of reified variables.
type Env struct {
	vars   map[string]*value.Var
	parent *Env
}

// NewEnv returns a scope nested in parent (parent may be nil).
func NewEnv(parent *Env) *Env {
	return &Env{vars: map[string]*value.Var{}, parent: parent}
}

// Lookup finds name in the scope chain.
func (e *Env) Lookup(name string) (*value.Var, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// Define creates (or replaces) name in this scope.
func (e *Env) Define(name string, v value.V) *value.Var {
	cell := value.NewCell(value.Deref(v))
	e.vars[name] = cell
	return cell
}

// Interp is an interpreter instance: global scope, builtin library and
// native registry.
type Interp struct {
	globals  *Env
	builtins map[string]value.V
	natives  map[string]*value.Native
	scan     *core.ScanHolder
	tracer   *core.Tracer
	out      io.Writer

	// Whole-program facts (internal/analyze), computed over the normalized
	// trees when optimize or vm is set. The VM reads them for its call1
	// dispatch and to provision |> sites; optimize (WithOptimize) has the
	// tree walk provision |> the same way — inline when the body is pure,
	// a whole-sequence queue when its yields are bounded — and nothing
	// else.
	optimize bool
	facts    *analyze.Facts

	// Compiled execution (the bytecode vm): when vm is set, loaded
	// procedures, top-level statements and evaluated expressions run as
	// slot-framed bytecode.
	vm bool
	// vmMachines maps compiled-unit names to their Machines — the resolver
	// snapshot restore uses to rebuild call towers (checkpoint.Restore).
	vmMachines map[string]*vm.Machine
	// seeded names the global cells compileBatch gave a builtin or native
	// ahead of any declaration of the name: the tree walk has no cell for
	// them yet, so a global or field declaration still resets them to null.
	seeded map[string]bool
	// late lists, by name, the compiled procedures that mention the name
	// without holding its global cell (link); a declaration of the name
	// recompiles them (relink).
	late map[string][]lateProc
}

// Option configures an interpreter.
type Option func(*Interp)

// WithOutput directs write()/writes() output to w.
func WithOutput(w io.Writer) Option { return func(in *Interp) { in.out = w } }

// WithOptimize has the tree walk provision |> sites from whole-program
// facts, as the VM already does: a pure body runs inline, a bounded one
// gets a queue sized to its whole sequence. Semantically a no-op — the
// semtest lanes under WithOptimize pin that traces are identical either way.
func WithOptimize() Option { return func(in *Interp) { in.optimize = true } }

// New returns an interpreter with the builtin library loaded.
func New(opts ...Option) *Interp {
	in := &Interp{out: os.Stdout, natives: map[string]*value.Native{}, facts: analyze.NewFacts(),
		vmMachines: map[string]*vm.Machine{}, seeded: map[string]bool{},
		late: map[string][]lateProc{}}
	for _, o := range opts {
		o(in)
	}
	in.globals = NewEnv(nil)
	in.scan = core.NewScanHolder()
	in.builtins = core.Library(in.out, in.scan)
	return in
}

// RegisterNative exposes a Go function to embedded code under the ::
// invocation syntax. When the call site has an explicit receiver
// (expr::name(args)), the receiver value is passed as the first argument;
// this::name(args) passes only the arguments. Returning (nil, nil) means
// failure; a non-nil error raises a runtime error. Compiled procedures
// already loaded that name it recompile against the registration.
func (in *Interp) RegisterNative(name string, fn func(args ...value.V) (value.V, error)) {
	in.natives[name] = value.NewNative(name, fn)
	in.relink(name)
}

// EnableTrace turns on Icon-style procedure tracing (&trace): calls,
// suspensions, returns and failures are logged to w with call-depth
// prefixes — the program-monitoring hook of the paper's §9 future work.
func (in *Interp) EnableTrace(w io.Writer) { in.tracer = &core.Tracer{W: w} }

// DisableTrace turns procedure tracing off.
func (in *Interp) DisableTrace() { in.tracer = nil }

// Define binds a global variable. Under the VM an existing global keeps
// the cell compiled code holds.
func (in *Interp) Define(name string, v value.V) {
	var b batch
	if in.vm {
		b = batch{}
	}
	in.defineGlobal(name, v, b)
}

// Global returns a global's current value.
func (in *Interp) Global(name string) (value.V, bool) {
	cell, ok := in.globals.Lookup(name)
	if !ok {
		return nil, false
	}
	return cell.Get(), true
}

// LoadProgram parses, normalizes and loads a Junicon program: declarations
// are defined and top-level statements executed in order (bounded, as at
// "the outermost level of interaction"). Under the VM the whole batch
// compiles before any of it runs (compileBatch); each statement still sees
// only the declarations above it.
func (in *Interp) LoadProgram(src string) error {
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return err
	}
	decls := transform.Normalize(prog).(*ast.Program).Decls
	if in.optimize || in.vm {
		// Declarations are analyzed once, when they arrive (their bodies
		// are evaluated or compiled later); only a batch that rebinds an
		// earlier call site re-runs the analysis (analyze.Facts.ExtendDecls).
		// Diagnostics are not computed here — vet reporting is the REPL's
		// and Vet's job, not the evaluator's.
		in.facts.ExtendDecls(decls, in.factsOptions())
	}
	return in.protect(func() {
		var b batch
		if in.vm {
			b = in.compileBatch(decls)
		}
		for _, d := range decls {
			in.loadDecl(d, b)
		}
	})
}

// factsOptions builds the analyze options for this interpreter: a name is
// known when it resolves in the global scope at analysis time.
func (in *Interp) factsOptions() analyze.Options {
	return analyze.Options{
		Known: func(name string) bool {
			_, ok := in.Global(name)
			return ok
		},
	}
}

// loadDecl defines one declaration or runs one top-level statement of a
// batch; b holds what compileBatch made of the batch (empty on the tree
// walk).
func (in *Interp) loadDecl(d ast.Node, b batch) {
	switch x := d.(type) {
	case *ast.ProcDecl:
		in.defineGlobal(x.Name, in.procValue(x, b[x]), b)
	case *ast.RecordDecl:
		in.defineGlobal(x.Name, recordConstructor(x), b)
	case *ast.GlobalDecl:
		for _, name := range x.Names {
			in.defineNull(name)
		}
	case *ast.ClassDecl:
		// Minimal class model: fields become globals, methods become
		// procedures (the paper's class-level embedding maps fields and
		// methods into the host class; interactively we flatten them).
		for _, f := range x.Fields {
			in.defineNull(f)
		}
		for _, m := range x.Methods {
			in.defineGlobal(m.Name, in.procValue(m, b[m]), b)
		}
	default:
		// Top-level statement: bounded evaluation.
		g := in.start(d, b[d])
		g.Next()
		g.Restart()
	}
}

// defineGlobal binds a declared name. The tree walk gives it a new cell;
// a compiled batch sets the cell compileBatch declared, which its code
// already holds.
func (in *Interp) defineGlobal(name string, v value.V, b batch) {
	delete(in.seeded, name)
	if cell, ok := in.globals.Lookup(name); ok && b != nil {
		cell.Set(v)
	} else {
		in.globals.Define(name, v)
	}
	in.relink(name)
}

// defineNull declares a global or field: a name with no global yet gets a
// null one, and so does a cell compileBatch seeded, which the tree walk
// would not have had; an existing global keeps its value.
func (in *Interp) defineNull(name string) {
	if cell, ok := in.globals.Lookup(name); !ok {
		in.globals.Define(name, value.NullV)
	} else if in.seeded[name] {
		cell.Set(value.NullV)
	}
	delete(in.seeded, name)
	in.relink(name)
}

// parseExpr parses and normalizes one top-level expression, caching its
// facts when optimizing — the one front end of EvalGen, ExprMachine and
// DisassembleExpr, so what is listed and what is restored is what runs.
func (in *Interp) parseExpr(src string) (ast.Node, error) {
	e, err := parser.ParseExpression(src)
	if err != nil {
		return nil, err
	}
	norm := transform.Normalize(e)
	if in.optimize {
		// The interprocedural tables are already final for everything
		// loaded, so only the node cache grows.
		in.facts.ExtendExpr(norm, in.factsOptions())
	}
	return norm, nil
}

// EvalGen parses src as one expression and returns its generator. The
// expression is normalized first, so evaluation exercises the §5A normal
// form.
func (in *Interp) EvalGen(src string) (core.Gen, error) {
	norm, err := in.parseExpr(src)
	if err != nil {
		return nil, err
	}
	var m *vm.Machine
	if in.vm {
		m = in.compileTop(norm)
	}
	var g core.Gen
	if err := core.Protect(func() { g = in.start(norm, m) }); err != nil {
		return nil, err
	}
	return g, nil
}

// EvalRawGen is EvalGen without normalization — used by the equivalence
// tests that pin raw and normalized evaluation to the same sequences.
func (in *Interp) EvalRawGen(src string) (core.Gen, error) {
	e, err := parser.ParseExpression(src)
	if err != nil {
		return nil, err
	}
	var g core.Gen
	if err := core.Protect(func() { g = in.eval(e, in.globals) }); err != nil {
		return nil, err
	}
	return g, nil
}

// Eval parses src as an expression and drains its result sequence (capped
// at max results; max <= 0 means unbounded).
func (in *Interp) Eval(src string, max int) ([]value.V, error) {
	g, err := in.EvalGen(src)
	if err != nil {
		return nil, err
	}
	var out []value.V
	err = in.protect(func() { out = core.Drain(g, max) })
	return out, err
}

// EvalFirst parses src and returns its first result (ok == false on
// failure).
func (in *Interp) EvalFirst(src string) (value.V, bool, error) {
	g, err := in.EvalGen(src)
	if err != nil {
		return nil, false, err
	}
	var v value.V
	var ok bool
	err = in.protect(func() { v, ok = core.First(g) })
	return v, ok, err
}

// protect runs f under core.Protect, at the boundary where an evaluation's
// runtime error surfaces. A compiled scan swaps the environment in and out
// at its own instructions, with no deferred swap to unwind (a per-Next
// guard would tax every resumption), so an error raised inside one leaves
// its environment current: the boundary puts back the one the evaluation
// began with.
func (in *Interp) protect(f func()) error {
	outer := in.scan.Current()
	err := core.Protect(f)
	if err != nil {
		in.scan.Swap(outer)
	}
	return err
}

// resolve finds a name: scope chain, then builtins, then natives. Unknown
// names are auto-created as locals in the current scope, matching Icon's
// default-local rule.
func (in *Interp) resolve(name string, env *Env) *value.Var {
	if cell, ok := env.Lookup(name); ok {
		return cell
	}
	if b, ok := in.builtins[name]; ok {
		return value.NewVar(func() value.V { return b }, func(value.V) {
			value.Raise(value.ErrProcedure, "cannot assign to builtin "+name, nil)
		})
	}
	if n, ok := in.natives[name]; ok {
		return value.NewVar(func() value.V { return n }, func(value.V) {
			value.Raise(value.ErrProcedure, "cannot assign to native "+name, nil)
		})
	}
	return env.Define(name, value.NullV)
}

// recordConstructor builds the constructor procedure a record declaration
// introduces.
func recordConstructor(d *ast.RecordDecl) *value.Proc {
	fields := append([]string(nil), d.Fields...)
	name := d.Name
	return value.NewProc(name, len(fields), func(args ...value.V) core.Gen {
		vals := make([]value.V, len(args))
		for i, a := range args {
			vals[i] = value.Deref(a)
		}
		return core.Unit(value.NewRecord(name, fields, vals))
	})
}

func fmtPos(p ast.Pos) string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }
