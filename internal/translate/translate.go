// Package translate emits Go source from normalized Junicon syntax trees —
// the migration stage of the paper (§5, Figure 5): each procedure becomes a
// host-language function whose body is a composition of kernel-iterator
// constructors over reified parameters and temporaries, exposed as a
// variadic procedure value.
//
// Where Figure 5 emits `new IconProduct(new IconIn(x_1_r, …),
// new IconPromote(x_1_r))` for Java, this package emits
// `core.Product(core.In(x_1_r, …), core.Promote(core.Unit(x_1_r)))` for Go.
// Generated files are self-contained: they depend only on the kernel
// packages, resolve free names through a package-level global scope
// initialized with the builtin library, and expose a Natives map for host
// interop (the :: calls of §4).
package translate

import (
	"errors"
	"fmt"
	"go/format"
	"io"
	"os"
	"sort"
	"strings"

	"junicon/internal/analyze"
	"junicon/internal/ast"
	"junicon/internal/parser"
	"junicon/internal/transform"
)

// Options configures code generation.
type Options struct {
	// Package is the generated package name (default "translated").
	Package string
	// Diagnostics receives analyzer warnings from the pre-translation gate
	// (nil selects standard error).
	Diagnostics io.Writer
	// Known reports names bound by the host environment, suppressing
	// never-assigned diagnostics for them. May be nil.
	Known func(name string) bool
	// NoVet disables the pre-translation analyzer gate entirely.
	NoVet bool
	// Optimize enables facts-driven emission: pure ≤1-yield product
	// prefixes compile to core.FusedProduct, strictly pure pipes to
	// pipe.NewInline, bounded pipes to bound-sized buffers, and ≤1-yield
	// top-level statements skip the core.Bound wrapper. Off by default so
	// generated output is stable; semantics are identical either way.
	Optimize bool
}

// TranslateProgram parses, normalizes and translates a whole Junicon
// program to a Go source file. Before emitting, the program passes
// through the static analyzer: warnings go to opts.Diagnostics, errors
// abort the translation — code that is statically wrong under the
// calculus is not worth migrating.
func TranslateProgram(src string, opts Options) (string, error) {
	prog, perr := parser.ParseProgram(src)
	if perr != nil {
		return "", perr
	}
	if !opts.NoVet {
		if err := vetGate(prog, opts); err != nil {
			return "", err
		}
	}
	norm := transform.Normalize(prog).(*ast.Program)
	e := newEmitter(opts)
	if opts.Optimize {
		// Facts are computed over the normalized tree — the one being
		// emitted — so the emitter can consult them by node identity. The
		// vet gate above owns the diagnostics.
		e.facts = analyze.NewFacts()
		e.facts.ExtendDecls(norm.Decls, analyze.Options{Known: opts.Known})
	}
	out, err := e.program(norm)
	if err != nil {
		return "", err
	}
	pretty, ferr := format.Source([]byte(out))
	if ferr != nil {
		// A formatting failure is a generator bug; return the raw source so
		// the caller (and tests) can see what was produced.
		return out, fmt.Errorf("translate: generated invalid Go: %w", ferr)
	}
	return string(pretty), nil
}

// vetGate runs the analyzer over the parsed program: warnings are printed,
// errors abort the emit.
func vetGate(prog *ast.Program, opts Options) error {
	diags := analyze.Program(prog, analyze.Options{Known: opts.Known})
	w := opts.Diagnostics
	if w == nil {
		w = os.Stderr
	}
	var errLines []string
	for _, d := range diags {
		if d.Severity == analyze.Error {
			errLines = append(errLines, "  "+d.String())
		} else {
			fmt.Fprintln(w, d)
		}
	}
	if len(errLines) > 0 {
		return errors.New("translate: program fails static checks:\n" + strings.Join(errLines, "\n"))
	}
	return nil
}

// emitter carries generation state.
type emitter struct {
	opts  Options
	buf   strings.Builder
	depth int
	// scope holds the names that are cells in the current procedure
	// (parameters, locals, temporaries); anything else resolves globally.
	scope map[string]bool
	// facts is the whole-program fact table when Options.Optimize is set
	// (nil otherwise — every consultation is nil-safe and conservative).
	facts *analyze.Facts
	errs  []string
}

func newEmitter(opts Options) *emitter {
	if opts.Package == "" {
		opts.Package = "translated"
	}
	return &emitter{opts: opts}
}

func (e *emitter) linef(format string, args ...any) {
	e.buf.WriteString(strings.Repeat("\t", e.depth))
	fmt.Fprintf(&e.buf, format, args...)
	e.buf.WriteByte('\n')
}

func (e *emitter) errf(format string, args ...any) {
	e.errs = append(e.errs, fmt.Sprintf(format, args...))
}

// cell returns the Go identifier of a reified cell, in the paper's _r
// naming style.
func cell(name string) string { return "v_" + name + "_r" }

// procVar returns the Go identifier of a translated procedure value.
func procVar(name string) string { return "P_" + name }

func (e *emitter) program(p *ast.Program) (string, error) {
	var procs []*ast.ProcDecl
	var records []*ast.RecordDecl
	var classes []*ast.ClassDecl
	var globals []string
	var topLevel []ast.Node
	for _, d := range p.Decls {
		switch x := d.(type) {
		case *ast.ProcDecl:
			procs = append(procs, x)
		case *ast.RecordDecl:
			records = append(records, x)
		case *ast.GlobalDecl:
			globals = append(globals, x.Names...)
		case *ast.ClassDecl:
			classes = append(classes, x)
		default:
			topLevel = append(topLevel, d)
		}
	}

	e.linef("// Code generated by junicon translate; DO NOT EDIT.")
	e.linef("")
	e.linef("// Package %s holds the Go translation of an embedded Junicon program", e.opts.Package)
	e.linef("// (§5: migration by flattening to compositions of kernel iterators).")
	e.linef("package %s", e.opts.Package)
	e.linef("")
	e.linef("import (")
	e.depth++
	e.linef(`"os"`)
	e.linef(`"sync"`)
	e.linef("")
	e.linef(`"junicon/internal/coexpr"`)
	e.linef(`"junicon/internal/core"`)
	e.linef(`"junicon/internal/pipe"`)
	e.linef(`"junicon/internal/value"`)
	e.depth--
	e.linef(")")
	e.linef("")
	e.linef("// Globals is the translated program's global scope.")
	e.linef("var Globals = map[string]*value.Var{}")
	e.linef("")
	e.linef("// Natives is the host-interop registry for :: invocations.")
	e.linef("var Natives = map[string]*value.Native{}")
	e.linef("")
	e.linef("// scanHolder carries this program's string-scanning environment.")
	e.linef("var scanHolder = core.NewScanHolder()")
	e.linef("")
	e.linef("var builtins = func() map[string]value.V {")
	e.depth++
	e.linef("b := core.Builtins(os.Stdout)")
	e.linef("for k, v := range core.ScanBuiltins(scanHolder) {")
	e.linef("\tb[k] = v")
	e.linef("}")
	e.linef("return b")
	e.depth--
	e.linef("}()")
	e.linef("")
	e.linef("// resolve finds a name: globals first, then builtins; unknown names")
	e.linef("// are created as globals on first use.")
	e.linef("func resolve(name string) *value.Var {")
	e.depth++
	e.linef("if v, ok := Globals[name]; ok {")
	e.linef("\treturn v")
	e.linef("}")
	e.linef("if b, ok := builtins[name]; ok {")
	e.linef("\treturn value.NewCell(b)")
	e.linef("}")
	e.linef("v := value.NewCell(value.NullV)")
	e.linef("Globals[name] = v")
	e.linef("return v")
	e.depth--
	e.linef("}")
	e.linef("")
	e.linef("func native(name string) *value.Native {")
	e.depth++
	e.linef("if n, ok := Natives[name]; ok {")
	e.linef("\treturn n")
	e.linef("}")
	e.linef(`value.Raise(value.ErrProcedure, "unregistered native ::"+name, nil)`)
	e.linef(`panic("unreachable")`)
	e.depth--
	e.linef("}")
	e.linef("")
	e.linef("// intLit and realLit parse numeric literals at package-init time.")
	e.linef("func intLit(s string) value.V {")
	e.depth++
	e.linef("i, ok := value.ToInteger(value.String(s))")
	e.linef("if !ok {")
	e.linef("\tvalue.Raise(value.ErrInteger, \"malformed integer literal\", value.String(s))")
	e.linef("}")
	e.linef("return i")
	e.depth--
	e.linef("}")
	e.linef("")
	e.linef("func realLit(s string) value.V {")
	e.depth++
	e.linef("r, ok := value.ToReal(value.String(s))")
	e.linef("if !ok {")
	e.linef("\tvalue.Raise(value.ErrNumeric, \"malformed real literal\", value.String(s))")
	e.linef("}")
	e.linef("return r")
	e.depth--
	e.linef("}")
	e.linef("")
	e.linef("// initCell (re)initializes a declared local from its initializer.")
	e.linef("func initCell(cell *value.Var, init core.Gen) core.Gen {")
	e.depth++
	e.linef("return core.Defer(func() core.Gen {")
	e.depth++
	e.linef("if v, ok := core.First(init); ok {")
	e.linef("\tcell.Set(v)")
	e.linef("} else {")
	e.linef("\tcell.Set(value.NullV)")
	e.linef("}")
	e.linef("init.Restart()")
	e.linef("return core.Unit(value.NullV)")
	e.depth--
	e.linef("})")
	e.depth--
	e.linef("}")
	e.linef("")
	e.linef("// suppress unused-import warnings for programs not using every feature")
	e.linef("var (")
	e.depth++
	e.linef("_ = coexpr.Simple")
	e.linef("_ = pipe.New")
	e.linef("_ = intLit")
	e.linef("_ = realLit")
	e.linef("_ = initCell")
	e.linef("_ = native")
	e.linef("_ = sync.Once{}")
	e.depth--
	e.linef(")")
	e.linef("")

	for _, r := range records {
		e.record(r)
	}
	for _, c := range classes {
		e.classDual(c)
	}
	for _, pd := range procs {
		e.proc(pd)
	}

	// init wires translated procedures and declared globals into scope.
	e.linef("func init() {")
	e.depth++
	for _, g := range dedup(globals) {
		e.linef("Globals[%q] = value.NewCell(value.NullV)", g)
	}
	for _, r := range records {
		e.linef("Globals[%q] = value.NewCell(%s)", r.Name, procVar(r.Name))
	}
	for _, c := range classes {
		e.linef("Globals[%q] = value.NewCell(%sProc)", c.Name, goName(c.Name))
	}
	for _, pd := range procs {
		e.linef("Globals[%q] = value.NewCell(%s)", pd.Name, procVar(pd.Name))
	}
	e.depth--
	e.linef("}")
	e.linef("")

	// Run executes top-level statements (bounded, in order).
	e.linef("// Run executes the program's top-level statements.")
	e.linef("func Run() {")
	e.depth++
	if len(topLevel) == 0 {
		e.linef("// no top-level statements")
	}
	e.scope = map[string]bool{}
	for _, s := range topLevel {
		if e.facts.BoundedOnce(s) {
			// At most one result and no pipes to release: the Bound
			// wrapper's cut-and-restart bookkeeping is dead weight.
			e.linef("%s.Next()", e.expr(s))
		} else {
			e.linef("core.Bound(%s).Next()", e.expr(s))
		}
	}
	e.depth--
	e.linef("}")

	if len(e.errs) > 0 {
		return "", fmt.Errorf("translate: %s", strings.Join(e.errs, "; "))
	}
	return e.buf.String(), nil
}

func dedup(names []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func (e *emitter) record(r *ast.RecordDecl) {
	e.linef("// %s is the constructor for record %s(%s).", procVar(r.Name), r.Name, strings.Join(r.Fields, ", "))
	e.linef("var %s = value.NewProc(%q, %d, func(args ...value.V) core.Gen {", procVar(r.Name), r.Name, len(r.Fields))
	e.depth++
	e.linef("vals := make([]value.V, len(args))")
	e.linef("for i, a := range args {")
	e.linef("\tvals[i] = value.Deref(a)")
	e.linef("}")
	fields := make([]string, len(r.Fields))
	for i, f := range r.Fields {
		fields[i] = fmt.Sprintf("%q", f)
	}
	e.linef("return core.Unit(value.NewRecord(%q, []string{%s}, vals))", r.Name, strings.Join(fields, ", "))
	e.depth--
	e.linef("})")
	e.linef("")
}

// proc translates one procedure declaration — the Figure 5 shape: reified
// parameters, reified locals and temporaries, parameter unpacking, then the
// method body as a suspendable iterator.
func (e *emitter) proc(p *ast.ProcDecl) {
	outer := e.scope
	e.scope = map[string]bool{}
	for _, param := range p.Params {
		e.scope[param] = true
	}
	// Statics and initial clauses: per-procedure persistent state (§Icon).
	statics, hasInitial := staticInfo(p)
	for _, st := range statics {
		e.scope[st] = true
	}
	var locals []string
	for _, l := range collectLocals(p) {
		if !e.scope[l] {
			locals = append(locals, l)
			e.scope[l] = true
		}
	}
	persistent := len(statics) > 0 || hasInitial

	e.linef("// %s translates Junicon procedure %s(%s).", procVar(p.Name), p.Name, strings.Join(p.Params, ", "))
	if persistent {
		e.linef("var %s = func() *value.Proc {", procVar(p.Name))
		e.depth++
		e.linef("var staticOnce sync.Once")
		for _, st := range statics {
			e.linef("%s := value.NewCell(value.NullV) // static", cell(st))
		}
		e.linef("return value.NewProc(%q, %d, func(args ...value.V) core.Gen {", p.Name, len(p.Params))
	} else {
		e.linef("var %s = value.NewProc(%q, %d, func(args ...value.V) core.Gen {", procVar(p.Name), p.Name, len(p.Params))
	}
	e.depth++
	if len(p.Params) > 0 {
		e.linef("// Reified parameters")
		for _, param := range p.Params {
			e.linef("%s := value.NewCell(value.NullV)", cell(param))
		}
		e.linef("// Unpack parameters (variadic: missing arguments stay null)")
		for i, param := range p.Params {
			e.linef("if len(args) > %d {", i)
			e.linef("\t%s.Set(value.Deref(args[%d]))", cell(param), i)
			e.linef("}")
		}
	} else {
		e.linef("_ = args")
	}
	if len(locals) > 0 {
		e.linef("// Reified locals and temporaries")
		for _, l := range locals {
			e.linef("%s := value.NewCell(value.NullV)", cell(l))
		}
	}
	e.linef("// Method body")
	e.linef("return core.NewGen(func(yield func(value.V) bool) {")
	e.depth++
	if persistent {
		e.linef("staticOnce.Do(func() {")
		e.depth++
		for _, st := range p.Body.Stmts {
			switch x := st.(type) {
			case *ast.VarDecl:
				if x.Kind == "static" {
					for i, n := range x.Names {
						if x.Inits[i] == nil {
							continue
						}
						e.linef("if v, ok := core.First(%s); ok {", e.expr(x.Inits[i]))
						e.linef("	%s.Set(v)", e.cellRef(n))
						e.linef("}")
					}
				}
			case *ast.Initial:
				e.stmt(x.Body)
			}
		}
		e.depth--
		e.linef("})")
	}
	e.stmts(p.Body.Stmts)
	e.depth--
	e.linef("})")
	e.depth--
	e.linef("})")
	if persistent {
		e.depth--
		e.linef("}()")
	}
	e.linef("")
	e.scope = outer
}

// staticInfo reports a procedure's static variable names and whether it has
// an initial clause.
func staticInfo(p *ast.ProcDecl) (statics []string, hasInitial bool) {
	for _, s := range p.Body.Stmts {
		switch x := s.(type) {
		case *ast.VarDecl:
			if x.Kind == "static" {
				statics = append(statics, x.Names...)
			}
		case *ast.Initial:
			hasInitial = true
		}
	}
	return statics, hasInitial
}

// collectLocals gathers names that behave as procedure locals: declared
// ones, assignment targets, bound-iteration temporaries — everything except
// names that are only read (those resolve globally).
func collectLocals(p *ast.ProcDecl) []string {
	params := map[string]bool{}
	for _, param := range p.Params {
		params[param] = true
	}
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if name == "" || params[name] || seen[name] {
			return
		}
		seen[name] = true
		out = append(out, name)
	}
	ast.Walk(p.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.VarDecl:
			for _, name := range x.Names {
				add(name)
			}
		case *ast.BindIn:
			add(x.Tmp)
		case *ast.Binary:
			if x.Op == ":=" || x.Op == "<-" || x.Op == ":=:" || x.Op == "<->" ||
				(len(x.Op) > 2 && strings.HasSuffix(x.Op, ":=")) {
				if id, ok := x.L.(*ast.Ident); ok {
					add(id.Name)
				}
				if x.Op == ":=:" || x.Op == "<->" {
					if id, ok := x.R.(*ast.Ident); ok {
						add(id.Name)
					}
				}
			}
		}
		return true
	})
	return out
}
