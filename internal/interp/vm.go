package interp

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"junicon/internal/ast"
	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/parser"
	"junicon/internal/transform"
	"junicon/internal/value"
	"junicon/internal/vm"
)

// WithVM enables bytecode-compiled execution: every procedure, top-level
// statement and evaluated expression is lowered to the compile package's
// bytecode and driven in slot-based resumable frames (the vm package). A
// form the tree walk raises on compiles to a raise of the same error, so
// compiled execution is never a semantic fork.
func WithVM() Option { return func(in *Interp) { in.vm = true } }

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
		LookupConst: in.constant,
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

// batch is what compileBatch made of a loaded batch: the Machine of each
// procedure, method and top-level statement. nil on the tree walk.
type batch map[ast.Node]*vm.Machine

// must returns a unit compile made. The interpreter's Env supplies all a
// construct can need, so a refusal is a compiler bug.
func must(m *vm.Machine, err error) *vm.Machine {
	if err != nil {
		panic(err)
	}
	return m
}

// compileBatch compiles a batch before any of it runs. Every name the batch
// declares first gets its global cell, holding what the name resolves to
// now, so a statement above a declaration sees what the tree walk would
// there — a forward call fails with error 106 — and defineGlobal fills the
// cell when the load reaches the declaration. The top-level statements
// compile next, creating the globals they name, and the procedures last,
// against every cell the batch can reach: mutually recursive procedures
// compile against each other's cells, as the tree walk resolves names
// when a procedure is called.
func (in *Interp) compileBatch(decls []ast.Node) batch {
	b := batch{}
	var procs []*ast.ProcDecl
	for _, d := range decls {
		switch x := d.(type) {
		case *ast.ProcDecl:
			in.declare(x.Name)
			procs = append(procs, x)
		case *ast.RecordDecl:
			in.declare(x.Name)
		case *ast.GlobalDecl:
			for _, name := range x.Names {
				in.declare(name)
			}
		case *ast.ClassDecl:
			for _, f := range x.Fields {
				in.declare(f)
			}
			for _, m := range x.Methods {
				in.declare(m.Name)
				procs = append(procs, m)
			}
		}
	}
	for _, d := range decls {
		switch d.(type) {
		case *ast.ProcDecl, *ast.RecordDecl, *ast.GlobalDecl, *ast.ClassDecl:
		default:
			b[d] = in.compileTop(d)
		}
	}
	for _, p := range procs {
		b[p] = must(vm.CompileProc(p, in.compileEnv(false)))
	}
	return b
}

// declare gives name a global cell if it has none, holding the builtin or
// native it resolves to (noted in seeded), or null.
func (in *Interp) declare(name string) {
	if _, ok := in.globals.Lookup(name); ok {
		return
	}
	v, ok := in.constant(name)
	if ok {
		in.seeded[name] = true
	} else {
		v = value.NullV
	}
	in.globals.Define(name, v)
}

// constant resolves a builtin, then a native, as the tree walk does after
// the scope chain.
func (in *Interp) constant(name string) (value.V, bool) {
	if b, ok := in.builtins[name]; ok {
		return b, true
	}
	if n, ok := in.natives[name]; ok {
		return n, true
	}
	return nil, false
}

// procValue is a declared procedure's value: its compiled unit m, whose
// frames trace through the interpreter's tracer, or the tree walk's
// closure when the VM is off (m is nil).
func (in *Interp) procValue(d *ast.ProcDecl, m *vm.Machine) *value.Proc {
	if m == nil {
		return in.makeProc(d, in.globals)
	}
	p := value.NewProc(d.Name, len(d.Params), nil)
	in.link(p, d, m)
	return p
}

// lateProc is a compiled procedure and its declaration.
type lateProc struct {
	p *value.Proc
	d *ast.ProcDecl
}

// link makes p run m, d's compiled unit. late notes for relink the names
// d's body mentions that have no global cell yet, which m bound to a
// builtin, a native or a local, and the natives it calls with ::, which m
// bound to the registration of the moment or to a raise.
func (in *Interp) link(p *value.Proc, d *ast.ProcDecl, m *vm.Machine) {
	m.Trace(&in.tracer)
	in.vmMachines[d.Name] = m
	p.Fn, p.Impl = m.Call, m
	seen := map[string]bool{}
	ast.Walk(d.Body, func(n ast.Node) bool {
		name := ""
		switch x := n.(type) {
		case *ast.Ident:
			if _, global := in.globals.Lookup(x.Name); !global && !slices.Contains(d.Params, x.Name) {
				name = x.Name
			}
		case *ast.NativeCall:
			name = x.Name
		}
		if name != "" && !seen[name] {
			seen[name] = true
			if !slices.Contains(in.late[name], lateProc{p, d}) {
				in.late[name] = append(in.late[name], lateProc{p, d})
			}
		}
		return true
	})
}

// relink recompiles in place the procedures that bound name before this
// declaration or native registration of it, so that from here on they see
// it, as a tree-walked procedure resolving the name at each call does.
// Their statics keep their values.
func (in *Interp) relink(name string) {
	procs := in.late[name]
	delete(in.late, name)
	for _, lp := range procs {
		old, ok := lp.p.Impl.(*vm.Machine)
		if !ok {
			continue // a tree-walked procedure resolves names when called
		}
		m := must(vm.CompileProc(lp.d, in.compileEnv(false)))
		was := old.Code()
		for i, g := range m.Code().GlobalNames {
			if j := slices.Index(was.GlobalNames, g); j >= 0 && strings.HasPrefix(g, "static ") {
				m.Code().Globals[i].Set(was.Globals[j].Get())
			}
		}
		in.link(lp.p, lp.d, m)
	}
}

// compileTop compiles a normalized top-level expression or statement, its
// frames following the interpreter's tracer.
func (in *Interp) compileTop(norm ast.Node) *vm.Machine {
	m := must(vm.CompileExpr(norm, in.compileEnv(true)))
	m.Trace(&in.tracer)
	return m
}

// start returns a top-level unit's generator: a frame of m, or the tree
// walk's over norm when m is nil (the VM is off).
func (in *Interp) start(norm ast.Node, m *vm.Machine) core.Gen {
	if m != nil {
		return m.NewFrame()
	}
	return in.eval(norm, in.globals)
}

// DisassembleProgram parses, normalizes and compiles src as LoadProgram
// would, without running it, and writes the bytecode listings of its
// procedures and top-level statements to w.
func (in *Interp) DisassembleProgram(src string, w io.Writer) error {
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return err
	}
	decls := transform.Normalize(prog).(*ast.Program).Decls
	in.facts.ExtendDecls(decls)
	b := in.compileBatch(decls)
	stmtN := 0
	for _, d := range decls {
		switch x := d.(type) {
		case *ast.ProcDecl:
			disUnit(w, "procedure "+x.Name, b[x])
		case *ast.ClassDecl:
			for _, m := range x.Methods {
				disUnit(w, "method "+x.Name+"."+m.Name, b[m])
			}
		case *ast.RecordDecl, *ast.GlobalDecl:
			// No code of their own.
		default:
			stmtN++
			disUnit(w, fmt.Sprintf("statement %d", stmtN), b[d])
		}
	}
	return nil
}

// DisassembleExpr compiles one expression as EvalGen does and writes its
// listing to w.
func (in *Interp) DisassembleExpr(src string, w io.Writer) error {
	m, err := in.ExprMachine(src)
	if err != nil {
		return err
	}
	_, werr := io.WriteString(w, m.Code().Disassemble())
	return werr
}

func disUnit(w io.Writer, title string, m *vm.Machine) {
	fmt.Fprintf(w, "-- %s\n%s\n", title, m.Code().Disassemble())
}
