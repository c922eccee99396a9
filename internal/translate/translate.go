// Package translate emits Go source from Junicon programs — the migration
// stage of the paper (§5). It is the second back end of the compile
// package: every unit (procedure, class method, top-level statement, and
// the create and <> bodies nested in them) is lowered to a code object,
// exactly as for the vm, and each code object becomes one Go type whose
// Next switches on its program counter — §5B's generator that "statefully
// resumes its point of suspension", with the frame (slots, operand and
// choice stacks, aux cells, pc) as the type's state. Only control flow is
// emitted: every operator, builtin, scan, call and creation goes through
// the vm.Frame method the vm's own dispatch loop calls, so no opcode has a
// second semantics. Every unit compiles: a form the tree walk raises on
// raises in the generated code too, when control reaches it.
//
// Generated files are self-contained packages. Names resolve as the
// interpreter resolves them; globals, natives and the scan environment
// are bound when the generated package initializes, through a global
// scope (Globals), a host-interop registry consulted at call time
// (Natives, the :: calls of §4) and the one builtin library.
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
	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/parser"
	"junicon/internal/transform"
	"junicon/internal/value"
)

// Options configures code generation.
type Options struct {
	// Package is the generated package name (default "translated").
	Package string
	// Diagnostics receives analyzer warnings from the pre-translation gate
	// (nil selects standard error).
	Diagnostics io.Writer
	// Known reports names bound by the host environment, suppressing
	// never-assigned diagnostics for them; the translation resolves them
	// as globals the host sets. May be nil.
	Known func(name string) bool
	// NoVet disables the pre-translation analyzer gate entirely.
	NoVet bool
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
	if opts.Package == "" {
		opts.Package = "translated"
	}
	e := &emitter{opts: opts, consts: map[value.V]string{}, globals: map[string]bool{}}
	out, err := e.program(transform.Normalize(prog).(*ast.Program))
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
	opts Options
	buf  strings.Builder
	// globals holds every name the program binds globally: declarations,
	// procedures, records, classes, host-known names and the names
	// top-level statements create. Each becomes a cell of Globals.
	globals map[string]bool
	// consts maps the stand-ins the translation Env hands the compiler
	// (builtins, natives) to the Go expressions that bind them at run time.
	consts map[value.V]string
	scan   *core.ScanHolder
	// fields holds the field names of the class whose method is being
	// lowered: they resolve to the instance's reified views.
	fields map[string]bool
}

func (e *emitter) linef(format string, args ...any) {
	fmt.Fprintf(&e.buf, format, args...)
	e.buf.WriteByte('\n')
}

// unit is one top-level code object and the Go identifiers it emits as.
type unit struct {
	code *compile.Code
	id   string // Go identifier of the type; machine_<id> builds its Machine
	proc string // procedure name bound in Globals, "" for a statement
}

// env is the translation Env: names resolve exactly as for the vm, to
// stand-ins that the emitted package binds when it initializes.
func (e *emitter) env(topLevel bool) compile.Env {
	lib := core.Library(io.Discard, e.scan)
	env := compile.Env{
		LookupGlobal: func(name string) (*value.Var, bool) {
			if e.fields[name] || e.globals[name] || (e.opts.Known != nil && e.opts.Known(name)) {
				return value.NewCell(value.NullV), true
			}
			return nil, false
		},
		LookupConst: func(name string) (value.V, bool) {
			if _, ok := lib[name]; !ok {
				return nil, false
			}
			p := value.NewProc(name, -1, nil)
			e.consts[p] = fmt.Sprintf("builtins[%q]", name)
			return p, true
		},
		Native: func(name string) (*value.Native, bool) {
			n := value.NewNative(name, nil)
			e.consts[n] = fmt.Sprintf("native(%q)", name)
			return n, true
		},
		Scan: e.scan,
	}
	if topLevel {
		env.DefineGlobal = func(name string) *value.Var {
			e.globals[name] = true
			return value.NewCell(value.NullV)
		}
	}
	return env
}

func (e *emitter) program(p *ast.Program) (string, error) {
	e.scan = core.NewScanHolder()
	var procs []*ast.ProcDecl
	var records []*ast.RecordDecl
	var classes []*ast.ClassDecl
	var stmts []ast.Node
	for _, d := range p.Decls {
		switch x := d.(type) {
		case *ast.ProcDecl:
			procs = append(procs, x)
			e.globals[x.Name] = true
		case *ast.RecordDecl:
			records = append(records, x)
			e.globals[x.Name] = true
		case *ast.GlobalDecl:
			for _, name := range x.Names {
				e.globals[name] = true
			}
		case *ast.ClassDecl:
			classes = append(classes, x)
			e.globals[x.Name] = true
		default:
			stmts = append(stmts, d)
		}
	}
	// Top-level statements first: like the interpreter's load, they create
	// the globals the procedures then resolve.
	var stmtUnits, units []unit
	for i, s := range stmts {
		code, err := compile.Expr(s, e.env(true))
		if err != nil {
			return "", err
		}
		stmtUnits = append(stmtUnits, unit{code: code, id: fmt.Sprintf("stmt%d", i+1)})
	}
	for _, d := range procs {
		code, err := compile.Proc(d, e.env(false))
		if err != nil {
			return "", err
		}
		units = append(units, unit{code: code, id: "proc_" + d.Name, proc: d.Name})
	}
	units = append(units, stmtUnits...)

	e.header()
	for _, r := range records {
		e.record(r)
	}
	for _, c := range classes {
		if err := e.classDual(c); err != nil {
			return "", err
		}
	}
	for _, u := range units {
		e.unit(u.code, u.id, "")
	}
	e.wire(units, records, classes)
	return e.buf.String(), nil
}

// header emits the package clause and the glue every translation shares.
func (e *emitter) header() {
	e.linef(`// Code generated by junicon translate; DO NOT EDIT.

// Package %[1]s holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package %[1]s

import (
	"os"

	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/value"
	"junicon/internal/vm"
)

// Globals is the translated program's global scope. A host binds a global
// by setting its cell: Global(name).Set(v).
var Globals = map[string]*value.Var{}

// Natives is the host-interop registry for :: invocations, consulted at
// call time.
var Natives = map[string]*value.Native{}

// scanHolder carries this program's string-scanning environment.
var scanHolder = core.NewScanHolder()

var builtins = core.Library(os.Stdout, scanHolder)

// Global returns the cell of a global, creating it null.
func Global(name string) *value.Var {
	if v, ok := Globals[name]; ok {
		return v
	}
	v := value.NewCell(value.NullV)
	Globals[name] = v
	return v
}

// native stands for ::name, looked up in Natives when it is called.
func native(name string) *value.Native {
	return value.NewNative(name, func(args ...value.V) (value.V, error) {
		n, ok := Natives[name]
		if !ok {
			value.Raise(value.ErrProcedure, "unregistered native ::"+name, nil)
		}
		return n.Fn(args...)
	})
}

// statics holds the private cells of the program's static variables.
var statics = map[string]*value.Var{}

func static(name string) *value.Var {
	v, ok := statics[name]
	if !ok {
		v = value.NewCell(value.NullV)
		statics[name] = v
	}
	return v
}

func intLit(s string) value.V {
	i, _ := value.ToInteger(value.String(s))
	return i
}

// Statements are the machines of the program's top-level statements, in
// order; Run drives each once.
var Statements []*vm.Machine

// Run executes the program's top-level statements (bounded, in order)
// from the program's declared state (declare), so each Run starts as the
// first did. A global the host binds and the program does not declare
// keeps its value.
func Run() {
	declare()
	for _, m := range Statements {
		m.Call().Next()
	}
}
`, e.opts.Package)
}

// wire emits init, which builds the machines and procedure values, and
// declare, which puts the cells they capture in the program's declared
// state: its statics and globals null, its procedures, records and
// classes bound. init and every Run begin with declare.
func (e *emitter) wire(units []unit, records []*ast.RecordDecl, classes []*ast.ClassDecl) {
	bound := map[string]string{}
	for _, r := range records {
		bound[r.Name] = "P_" + r.Name
	}
	for _, c := range classes {
		bound[c.Name] = goName(c.Name) + "Proc"
	}
	for _, u := range units {
		if u.proc != "" {
			e.linef("// P_%s is procedure %s.\nvar P_%[1]s *value.Proc\n", u.proc, u.proc)
			bound[u.proc] = "P_" + u.proc
		}
	}
	e.linef("func init() {")
	for _, u := range units {
		if u.proc != "" {
			e.linef("P_%s = value.NewProc(%q, %d, machine_%s().Call)", u.proc, u.proc, u.code.Params, u.id)
		} else {
			e.linef("Statements = append(Statements, machine_%s())", u.id)
		}
	}
	e.linef("declare()\n}\n")
	var names []string
	for name := range e.globals {
		names = append(names, name)
	}
	sort.Strings(names)
	e.linef("// declare puts the program in its declared state: its statics and\n// globals null, its procedures, records and classes bound.\nfunc declare() {")
	e.linef("for _, v := range statics {\nv.Set(value.NullV)\n}")
	for _, name := range names {
		if v, ok := bound[name]; ok {
			e.linef("Global(%q).Set(%s)", name, v)
		} else {
			e.linef("Global(%q).Set(value.NullV)", name)
		}
	}
	e.linef("}")
}

// record emits a record constructor.
func (e *emitter) record(r *ast.RecordDecl) {
	fields := make([]string, len(r.Fields))
	for i, f := range r.Fields {
		fields[i] = fmt.Sprintf("%q", f)
	}
	e.linef(`// P_%[1]s is the constructor for record %[1]s(%[2]s).
var P_%[1]s = value.NewProc(%[1]q, %[3]d, func(args ...value.V) core.Gen {
	vals := make([]value.V, len(args))
	for i, a := range args {
		vals[i] = value.Deref(a)
	}
	return core.Unit(value.NewRecord(%[1]q, []string{%[4]s}, vals))
})
`, r.Name, strings.Join(r.Fields, ", "), len(r.Fields), strings.Join(fields, ", "))
}
