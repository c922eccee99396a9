package translate

import (
	"strings"

	"junicon/internal/ast"
	"junicon/internal/compile"
)

// Class translation (§5C): "expose variables in both plain and reified
// form while maintaining consistency between them. This duality allows
// Java code to use the plain form, while embedded Unicon code can use the
// reified form."
//
// A declaration `class C(x, y) { def m(a) {…} }` becomes a Go struct with
// the plain fields (host code reads and writes them directly), reified
// IconVar views whose get/set closures alias the plain fields, and method
// values whose code objects take the instance's views as the cells of
// the field names:
//
//	local x;   →   X value.V
//	               X_r = value.NewVar(func() value.V { return o.X },
//	                                  func(rhs value.V) { o.X = rhs })
//
// matching the paper's
//
//	Object x;
//	IconVar x_r = new IconVar(()->x, (rhs)->x=rhs);

// goName exports a Junicon identifier to a Go field name.
func goName(name string) string {
	if name == "" {
		return name
	}
	return strings.ToUpper(name[:1]) + name[1:]
}

// classDual emits the dual-form struct translation for a class and the
// state machines of its methods.
func (e *emitter) classDual(c *ast.ClassDecl) error {
	tname := goName(c.Name)
	e.linef("// %s is the dual-form translation of class %s(%s) (§5C):", tname, c.Name, strings.Join(c.Fields, ", "))
	e.linef("// plain fields for host code, reified views for embedded code.")
	e.linef("type %s struct {", tname)
	for _, f := range c.Fields {
		e.linef("%s value.V", goName(f))
	}
	for _, f := range c.Fields {
		e.linef("%s *value.Var // reified view of %s", goName(f)+"_r", goName(f))
	}
	for _, m := range c.Methods {
		e.linef("%s *value.Proc", goName(m.Name))
	}
	e.linef("}\n")

	// Constructor: wires the reified views to the plain fields and binds
	// the methods over the instance's views.
	e.linef("// New%s constructs an instance; missing arguments stay null.", tname)
	e.linef("func New%s(args ...value.V) *%s {", tname, tname)
	e.linef("o := &%s{}", tname)
	for i, f := range c.Fields {
		e.linef("o.%s = value.NullV", goName(f))
		e.linef("if len(args) > %d {\no.%s = value.Deref(args[%d])\n}", i, goName(f), i)
	}
	e.linef("// Reified views stay consistent with the plain fields: both")
	e.linef("// sides see every assignment — the closures alias the struct fields.")
	for _, f := range c.Fields {
		e.linef("o.%s_r = value.NewVar(func() value.V { return o.%s }, func(rhs value.V) { o.%s = rhs })",
			goName(f), goName(f), goName(f))
	}
	for _, m := range c.Methods {
		id := tname + "_" + m.Name
		e.linef("o.%s = value.NewProc(%q, %d, machine_%s(o).Call)", goName(m.Name), m.Name, len(m.Params), id)
	}
	e.linef("return o\n}\n")

	// Embedded code receives the instance as a record over the reified
	// fields (reference semantics: updates flow through) and the methods.
	names := make([]string, 0, len(c.Fields)+len(c.Methods))
	vals := make([]string, 0, len(names))
	for _, f := range c.Fields {
		names = append(names, `"`+f+`"`)
		vals = append(vals, "o."+goName(f)+"_r")
	}
	for _, m := range c.Methods {
		names = append(names, `"`+m.Name+`"`)
		vals = append(vals, "o."+goName(m.Name))
	}
	e.linef(`// %[1]sProc exposes the constructor to embedded code.
var %[1]sProc = value.NewProc(%[2]q, %[3]d, func(args ...value.V) core.Gen {
	return core.Unit(New%[1]s(args...).asRecord())
})

// asRecord views the instance as a record over the reified fields,
// so embedded code gets reference semantics on o.field.
func (o *%[1]s) asRecord() *value.Record {
	return value.NewRecord(%[2]q, []string{%[4]s}, []value.V{%[5]s})
}
`, tname, c.Name, len(c.Fields), strings.Join(names, ", "), strings.Join(vals, ", "))

	// Methods: lowered like procedures, with the field names (those no
	// parameter shadows) resolving to cells the instance supplies.
	e.fields = map[string]bool{}
	for _, f := range c.Fields {
		e.fields[f] = true
	}
	defer func() { e.fields = nil }()
	for _, m := range c.Methods {
		code, err := compile.Proc(m, e.env(false))
		if err != nil {
			return err
		}
		e.unit(code, tname+"_"+m.Name, tname)
	}
	return nil
}
