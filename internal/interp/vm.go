package interp

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"junicon/internal/ast"
	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/parser"
	"junicon/internal/telemetry"
	"junicon/internal/transform"
	"junicon/internal/value"
	"junicon/internal/vm"
)

// WithVM enables bytecode-compiled execution: loaded procedures and
// evaluated expressions are lowered to the compile package's bytecode and
// driven in slot-based resumable frames (the vm package); any unit the
// compiler cannot lower transparently falls back to the tree walk, so
// compiled execution is a pure optimization, never a semantic fork.
func WithVM() Option { return func(in *Interp) { in.vm = true } }

// Fallback records one unit the compiler rejected under WithVM: the unit
// runs on the tree walk instead.
type Fallback struct {
	Unit   string // procedure name, or "(expression)"
	Reason string // compile.Unsupported.Reason
}

// Fallbacks lists the distinct (unit, reason) pairs this interpreter's
// compiler has rejected so far, in order.
func (in *Interp) Fallbacks() []Fallback { return in.vmFallbacks }

// noteFallback records a unit the compiler rejected.
func (in *Interp) noteFallback(unit string, err error) {
	fb := Fallback{Unit: unit, Reason: err.Error()}
	var u *compile.Unsupported
	if errors.As(err, &u) {
		fb.Reason = u.Reason
	}
	// The trace carries each rejection's reason.
	telemetry.Emit(0, telemetry.KindSpan, "vm.fallback "+unit+": "+fb.Reason, 0)
	if !slices.Contains(in.vmFallbacks, fb) {
		in.vmFallbacks = append(in.vmFallbacks, fb)
	}
}

// SetVM toggles compiled execution at run time (the REPL's :vm command).
// Turning it on compiles every procedure loaded so far; turning it off
// reverts calls to the tree walk (compiled code stays cached for the next
// toggle).
func (in *Interp) SetVM(on bool) {
	in.vm = on
	if on {
		in.extendFacts(nil)
		for _, d := range in.decls {
			switch x := d.(type) {
			case *ast.ProcDecl:
				in.compileProc(x)
			case *ast.ClassDecl:
				for _, m := range x.Methods {
					in.compileProc(m)
				}
			}
		}
	}
}

// VMEnabled reports whether compiled execution is on.
func (in *Interp) VMEnabled() bool { return in.vm }

// compileEnv builds the compiler's name-resolution environment over this
// interpreter: the same resolution order the tree walk uses at generator
// construction (globals, then builtins, then natives), frozen at compile
// time. topLevel additionally grants the auto-create-global rule for
// unknown names (REPL persistence); procedure mode leaves them to the
// compiler's default-local handling.
func (in *Interp) compileEnv(topLevel bool) compile.Env {
	env := compile.Env{
		LookupGlobal: func(name string) (*value.Var, bool) {
			return in.globals.Lookup(name)
		},
		LookupConst: func(name string) (value.V, bool) {
			if b, ok := in.builtins[name]; ok {
				return b, true
			}
			if n, ok := in.natives[name]; ok {
				return n, true
			}
			return nil, false
		},
		Native: func(name string) (*value.Native, bool) {
			n, ok := in.natives[name]
			return n, ok
		},
		CallDirect: func(name string) bool {
			pf, ok := in.facts.Proc(name)
			return ok && pf.Effects.Fusable() && pf.Yields.AtMost(1)
		},
		Scan: in.scan,
		PipeStrategy: func(body ast.Node) (bool, int) {
			s := in.facts.PipeStrategy(body)
			return s.Inline, s.Buffer
		},
	}
	if topLevel {
		env.DefineGlobal = func(name string) *value.Var {
			if cell, ok := in.globals.Lookup(name); ok {
				return cell
			}
			return in.globals.Define(name, value.NullV)
		}
	}
	return env
}

// compileProcs lowers every procedure in decls, after the whole batch has
// been defined — two-phase loading, so mutually recursive procedures see
// each other's global cells at compile time.
func (in *Interp) compileProcs(decls []ast.Node) {
	for _, d := range decls {
		switch x := d.(type) {
		case *ast.ProcDecl:
			in.compileProc(x)
		case *ast.ClassDecl:
			for _, m := range x.Methods {
				in.compileProc(m)
			}
		}
	}
}

// compileProc lowers one loaded procedure and, on success, swaps the
// global's value for a dispatching wrapper: calls run the compiled frame
// when the vm is on and tracing is off, and the original tree-walk closure
// otherwise. The global cell is reused, so call sites — including compiled
// ones holding the cell — observe the swap; the vm's call-site cache keys
// on procedure identity, so it re-arms automatically.
func (in *Interp) compileProc(d *ast.ProcDecl) {
	if in.vmCompiled[d] {
		return
	}
	cell, ok := in.globals.Lookup(d.Name)
	if !ok {
		return
	}
	orig, ok := cell.Get().(*value.Proc)
	if !ok {
		return
	}
	m, err := vm.CompileProc(d, in.compileEnv(false))
	if err != nil {
		in.noteFallback(d.Name, err)
		return // tree walk only
	}
	if in.vmCompiled == nil {
		in.vmCompiled = map[*ast.ProcDecl]bool{}
	}
	in.vmCompiled[d] = true
	if in.vmMachines == nil {
		in.vmMachines = map[string]*vm.Machine{}
	}
	in.vmMachines[m.Code().Name] = m
	wrapper := value.NewProc(orig.Name, orig.Arity, func(args ...value.V) core.Gen {
		if in.vm && in.tracer == nil {
			return m.NewFrame(args...)
		}
		return orig.Fn(args...)
	})
	wrapper.Impl = m
	cell.Set(wrapper)
}

// compileEval lowers a normalized top-level expression, returning nil when
// the unit does not compile (the caller falls back to the tree walk).
func (in *Interp) compileEval(norm ast.Node) core.Gen {
	if !in.vm || in.tracer != nil {
		return nil
	}
	m, err := vm.CompileExpr(norm, in.compileEnv(true))
	if err != nil {
		in.noteFallback("(expression)", err)
		return nil
	}
	return m.NewFrame()
}

// DisassembleProgram parses and normalizes src, compiles every procedure
// and top-level statement, and writes the bytecode listings to w. Units
// the compiler cannot lower are listed with the reason they fall back.
func (in *Interp) DisassembleProgram(src string, w io.Writer) error {
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return err
	}
	norm := transform.Normalize(prog).(*ast.Program)
	// Define the declarations so cross-references resolve like a real load
	// (constructors for records, cells for globals and procedures).
	if err := core.Protect(func() {
		for _, d := range norm.Decls {
			switch d.(type) {
			case *ast.ProcDecl, *ast.RecordDecl, *ast.GlobalDecl, *ast.ClassDecl:
				in.loadDecl(d)
				in.decls = append(in.decls, d)
			}
		}
	}); err != nil {
		return err
	}
	in.extendFacts(norm.Decls)
	stmtN := 0
	for _, d := range norm.Decls {
		switch x := d.(type) {
		case *ast.ProcDecl:
			in.disUnit(w, "procedure "+x.Name, func() (*compile.Code, error) {
				return compile.Proc(x, in.compileEnv(false))
			})
		case *ast.ClassDecl:
			for _, m := range x.Methods {
				mm := m
				in.disUnit(w, "method "+x.Name+"."+m.Name, func() (*compile.Code, error) {
					return compile.Proc(mm, in.compileEnv(false))
				})
			}
		case *ast.RecordDecl, *ast.GlobalDecl:
			// No code of their own.
		default:
			stmtN++
			in.disUnit(w, fmt.Sprintf("statement %d", stmtN), func() (*compile.Code, error) {
				return compile.Expr(d, in.compileEnv(true))
			})
		}
	}
	return nil
}

// DisassembleExpr compiles one expression and writes its listing to w.
func (in *Interp) DisassembleExpr(src string, w io.Writer) error {
	e, err := parser.ParseExpression(src)
	if err != nil {
		return err
	}
	norm := transform.Normalize(e)
	if in.optimize || in.vm {
		in.exprFacts(norm)
	}
	code, err := compile.Expr(norm, in.compileEnv(true))
	if err != nil {
		return err
	}
	_, werr := io.WriteString(w, code.Disassemble())
	return werr
}

func (in *Interp) disUnit(w io.Writer, title string, f func() (*compile.Code, error)) {
	fmt.Fprintf(w, "-- %s\n", title)
	code, err := f()
	if err != nil {
		reason := err.Error()
		if u, ok := err.(*compile.Unsupported); ok {
			reason = u.Reason + " (tree-walk fallback)"
		}
		fmt.Fprintf(w, "   not compiled: %s\n\n", reason)
		return
	}
	listing := code.Disassemble()
	fmt.Fprint(w, listing)
	if !strings.HasSuffix(listing, "\n") {
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
