package value

import "fmt"

// Proc is a procedure value: a generator function. Invoking it returns a Gen
// producing the function's result sequence; a function that "returns" is
// simply a generator producing at most one result. Unicon methods are
// variadic — missing arguments arrive as null, extras are dropped or kept per
// the function's own logic — mirroring the paper's VariadicFunction exposure.
type Proc struct {
	Name  string
	Arity int // declared parameter count; -1 means fully variadic
	Fn    func(args ...V) Gen
	// Impl is the compiled unit Fn runs, when there is one (a *vm.Machine):
	// what lets a snapshot follow a procedure value to the cells its unit
	// keeps state in. nil for builtins and tree-walked procedures.
	Impl any
}

// NewProc wraps fn as a procedure value.
func NewProc(name string, arity int, fn func(args ...V) Gen) *Proc {
	return &Proc{Name: name, Arity: arity, Fn: fn}
}

func (p *Proc) Type() string  { return "procedure" }
func (p *Proc) Image() string { return fmt.Sprintf("procedure %s", p.Name) }

// Call invokes the procedure, padding missing arguments with null when the
// arity is known (Unicon's variadic convention).
func (p *Proc) Call(args ...V) Gen {
	if p.Arity >= 0 && len(args) < p.Arity {
		padded := make([]V, p.Arity)
		copy(padded, args)
		for i := len(args); i < p.Arity; i++ {
			padded[i] = NullV
		}
		args = padded
	}
	return p.Fn(args...)
}

// Native is a host-language (Go) function exposed to embedded code, the
// analogue of the paper's `::` native invocation. A native call produces a
// plain result which the kernel promotes to a singleton iterator (§5A:
// "for plain Java methods, invocation just promotes the result to a
// singleton iterator"). A returned error is raised as a runtime error; the
// (nil, nil) pair means native failure.
type Native struct {
	Name string
	Fn   func(args ...V) (V, error)
}

// NewNative wraps fn as a native function value.
func NewNative(name string, fn func(args ...V) (V, error)) *Native {
	return &Native{Name: name, Fn: fn}
}

func (n *Native) Type() string  { return "procedure" }
func (n *Native) Image() string { return fmt.Sprintf("function %s", n.Name) }

// Var is a reified variable — the paper's IconVar — a first-class updatable
// reference with get and set closures. Lifting a variable "turns it into a
// property with get and set methods" (§5A) so it can be passed as an
// updatable reference and participate in reversible assignment.
//
// Free-standing cells (NewCell) store their value directly instead of
// through a closure pair: temporaries are minted per line and per chunk on
// the data-parallel hot paths, and the direct form is one allocation where
// the closure pair is three.
type Var struct {
	GetFn func() V
	SetFn func(V)
	cell  V // direct storage when GetFn == nil
}

// NewVar returns a reified variable over the given closures.
func NewVar(get func() V, set func(V)) *Var { return &Var{GetFn: get, SetFn: set} }

// NewCell returns a free-standing variable holding v (a method local or
// temporary, the paper's IconTmp).
func NewCell(v V) *Var { return &Var{cell: v} }

// Get dereferences the variable.
func (v *Var) Get() V {
	if v.GetFn == nil {
		if v.cell == nil {
			return NullV
		}
		return v.cell
	}
	x := v.GetFn()
	if x == nil {
		return NullV
	}
	return x
}

// Set assigns through the variable.
func (v *Var) Set(x V) {
	if v.GetFn == nil {
		v.cell = x
		return
	}
	v.SetFn(x)
}

func (v *Var) Type() string  { return "variable" }
func (v *Var) Image() string { return "variable(" + Image(v.Get()) + ")" }

// Deref returns the value of v, dereferencing reified variables. All kernel
// operators dereference their operands; only assignment and the lifting
// transform treat Vars specially.
func Deref(v V) V {
	for {
		r, ok := v.(*Var)
		if !ok {
			if v == nil {
				return NullV
			}
			return v
		}
		v = r.Get()
	}
}
