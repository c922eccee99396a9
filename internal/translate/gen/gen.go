// Code generated by junicon translate; DO NOT EDIT.

// Package gen holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package gen

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

// Counter is the dual-form translation of class Counter(count) (§5C):
// plain fields for host code, reified views for embedded code.
type Counter struct {
	Count   value.V
	Count_r *value.Var // reified view of Count
	Incr    *value.Proc
	Upto    *value.Proc
}

// NewCounter constructs an instance; missing arguments stay null.
func NewCounter(args ...value.V) *Counter {
	o := &Counter{}
	o.Count = value.NullV
	if len(args) > 0 {
		o.Count = value.Deref(args[0])
	}
	// Reified views stay consistent with the plain fields: both
	// sides see every assignment — the closures alias the struct fields.
	o.Count_r = value.NewVar(func() value.V { return o.Count }, func(rhs value.V) { o.Count = rhs })
	o.Incr = value.NewProc("incr", 1, machine_Counter_incr(o).Call)
	o.Upto = value.NewProc("upto", 0, machine_Counter_upto(o).Call)
	return o
}

// CounterProc exposes the constructor to embedded code.
var CounterProc = value.NewProc("Counter", 1, func(args ...value.V) core.Gen {
	return core.Unit(NewCounter(args...).asRecord())
})

// asRecord views the instance as a record over the reified fields,
// so embedded code gets reference semantics on o.field.
func (o *Counter) asRecord() *value.Record {
	return value.NewRecord("Counter", []string{"count", "incr", "upto"}, []value.V{o.Count_r, o.Incr, o.Upto})
}

// Counter_incr is the state machine of incr.
type Counter_incr struct{ vm.Frame }

func machine_Counter_incr(o *Counter) *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "incr", Params: 1, NumAux: 0,
		Slots:       []string{"delta"},
		Globals:     []*value.Var{o.Count_r},
		GlobalNames: []string{"count"},
	}, func() (core.Gen, *vm.Frame) { f := new(Counter_incr); return f, &f.Frame },
	)
}

func (f *Counter_incr) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadGlobal(0)
			r.LoadSlot(0)
			r.Arith(0)
			r.StoreGlobal(0)
			r.Pop()
			r.LoadGlobal(0)
			return r.Return(7)
		case 7:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated Counter_incr: bad pc")
		}
	}
}

// Counter_upto is the state machine of upto.
type Counter_upto struct{ vm.Frame }

func machine_Counter_upto(o *Counter) *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "upto", Params: 0, NumAux: 2,
		Slots:       []string{},
		Consts:      []value.V{intLit("1")},
		Globals:     []*value.Var{o.Count_r},
		GlobalNames: []string{"count"},
	}, func() (core.Gen, *vm.Frame) { f := new(Counter_upto); return f, &f.Frame },
	)
}

func (f *Counter_upto) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(7)
				continue
			}
			r.Const(0)
			r.LoadGlobal(0)
			r.Const(0)
			fallthrough
		case 4:
			if !r.ToBy(1, 4) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 5:
			return r.Yield(6)
		case 6:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 7:
			return r.ReturnFail()
		default:
			panic("translated Counter_upto: bad pc")
		}
	}
}

// proc_isprime is the state machine of isprime.
type proc_isprime struct{ vm.Frame }

func machine_proc_isprime() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "isprime", Params: 1, NumAux: 6,
		Slots:  []string{"n", "x_0", "d"},
		Consts: []value.V{intLit("2"), intLit("1"), intLit("0")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_isprime); return f, &f.Frame },
	)
}

func (f *proc_isprime) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(6)
				continue
			}
			r.LoadSlot(0)
			r.Const(0)
			if !r.CmpTest(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(0)
			return r.ReturnFail()
		case 6:
			if r.Mark(1, 6) {
				r.Goto(32)
				continue
			}
			r.LoadSlot(0)
			r.Const(1)
			r.Arith(1)
			r.BindSlot(1)
			r.Pop()
			r.Const(0)
			r.LoadSlot(1)
			r.Const(1)
			fallthrough
		case 15:
			if !r.ToBy(3, 15) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(2)
			r.Pop()
			fallthrough
		case 18:
			if r.Mark(2, 18) {
				r.Goto(31)
				continue
			}
			fallthrough
		case 19:
			if r.Mark(4, 19) {
				r.Goto(30)
				continue
			}
			fallthrough
		case 20:
			if r.Mark(5, 20) {
				r.Goto(28)
				continue
			}
			r.LoadSlot(0)
			r.LoadSlot(2)
			r.Arith(4)
			r.Const(2)
			if !r.CmpTest(4) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(5)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 28:
			r.Cut(4)
			return r.ReturnFail()
		case 30:
			r.Cut(2)
			fallthrough
		case 31:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 32:
			r.LoadSlot(0)
			return r.Return(34)
		case 34:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_isprime: bad pc")
		}
	}
}

// proc_primesUpTo is the state machine of primesUpTo.
type proc_primesUpTo struct{ vm.Frame }

func machine_proc_primesUpTo() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "primesUpTo", Params: 1, NumAux: 3,
		Slots:       []string{"n", "x_3"},
		Consts:      []value.V{intLit("1")},
		Globals:     []*value.Var{Global("isprime")},
		GlobalNames: []string{"isprime"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_primesUpTo); return f, &f.Frame },
	)
}

func (f *proc_primesUpTo) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(12)
				continue
			}
			r.Const(0)
			r.LoadSlot(0)
			r.Const(0)
			fallthrough
		case 4:
			if !r.ToBy(1, 4) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(1)
			r.Pop()
			r.LoadGlobal(0)
			r.LoadSlot(1)
			fallthrough
		case 9:
			if !r.Call(1, 2, 9) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 10:
			return r.Yield(11)
		case 11:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 12:
			return r.ReturnFail()
		default:
			panic("translated proc_primesUpTo: bad pc")
		}
	}
}

// proc_chunk is the state machine of chunk.
type proc_chunk struct{ vm.Frame }

func machine_proc_chunk() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "chunk", Params: 2, NumAux: 6,
		Slots:  []string{"e", "size", "c", "x_5"},
		Consts: []value.V{builtins["put"], intLit("0")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_chunk); return f, &f.Frame },
	)
}

func (f *proc_chunk) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.MakeList(0)
			r.StoreSlot(2)
			r.Pop()
			fallthrough
		case 3:
			if r.Mark(0, 3) {
				r.Goto(30)
				continue
			}
			r.LoadSlot(0)
			if !r.Activate(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(3)
			r.Pop()
			r.Const(0)
			r.LoadSlot(2)
			r.LoadSlot(3)
			fallthrough
		case 11:
			if !r.Call(2, 2, 11) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(0)
			r.Pop()
			fallthrough
		case 14:
			if r.Mark(1, 14) {
				r.Goto(29)
				continue
			}
			fallthrough
		case 15:
			if r.Mark(3, 15) {
				r.Goto(28)
				continue
			}
			r.LoadSlot(2)
			r.Unary(3)
			r.LoadSlot(1)
			if !r.CmpTest(3) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(3)
			fallthrough
		case 21:
			if r.Mark(4, 21) {
				r.Goto(25)
				continue
			}
			r.LoadSlot(2)
			fallthrough
		case 23:
			return r.Yield(24)
		case 24:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 25:
			r.MakeList(0)
			r.StoreSlot(2)
			r.Pop()
			fallthrough
		case 28:
			r.Cut(1)
			fallthrough
		case 29:
			r.Goto(3)
			continue
		case 30:
			if r.Mark(5, 30) {
				r.Goto(39)
				continue
			}
			r.LoadSlot(2)
			r.Unary(3)
			r.Const(1)
			if !r.CmpTest(2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(5)
			r.LoadSlot(2)
			return r.Return(38)
		case 38:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 39:
			return r.ReturnFail()
		default:
			panic("translated proc_chunk: bad pc")
		}
	}
}

// proc_spawnMap_0 is the state machine of spawnMap|>0.
type proc_spawnMap_0 struct{ vm.Frame }

func machine_proc_spawnMap_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "spawnMap|>0", Params: 2, NumAux: 2,
		Slots: []string{"ch", "f", "x_9"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_spawnMap_0); return f, &f.Frame },
	)
}

func (f *proc_spawnMap_0) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadSlot(0)
			fallthrough
		case 1:
			if !r.Bang(0, 1, false) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(2)
			r.Pop()
			r.LoadSlot(1)
			r.LoadSlot(2)
			fallthrough
		case 6:
			if !r.Call(1, 1, 6) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 7:
			return r.Yield(8)
		case 8:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_spawnMap_0: bad pc")
		}
	}
}

// proc_spawnMap is the state machine of spawnMap.
type proc_spawnMap struct{ vm.Frame }

func machine_proc_spawnMap() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "spawnMap", Params: 2, NumAux: 2,
		Slots: []string{"f", "ch"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_spawnMap); return f, &f.Frame },
		machine_proc_spawnMap_0(),
	)
}

func (f *proc_spawnMap) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(7)
				continue
			}
			r.LoadSlot(1)
			r.LoadSlot(0)
			r.Create(2, 0, -1)
			fallthrough
		case 4:
			if !r.Bang(1, 4, false) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 5:
			return r.Yield(6)
		case 6:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 7:
			return r.ReturnFail()
		default:
			panic("translated proc_spawnMap: bad pc")
		}
	}
}

// proc_sq is the state machine of sq.
type proc_sq struct{ vm.Frame }

func machine_proc_sq() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "sq", Params: 1, NumAux: 0,
		Slots: []string{"x"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_sq); return f, &f.Frame },
	)
}

func (f *proc_sq) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadSlot(0)
			r.LoadSlot(0)
			r.Arith(2)
			return r.Return(4)
		case 4:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_sq: bad pc")
		}
	}
}

// proc_sumList is the state machine of sumList.
type proc_sumList struct{ vm.Frame }

func machine_proc_sumList() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "sumList", Params: 1, NumAux: 2,
		Slots:  []string{"l", "s"},
		Consts: []value.V{intLit("0")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_sumList); return f, &f.Frame },
	)
}

func (f *proc_sumList) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.Const(0)
			r.StoreSlot(1)
			r.Pop()
			fallthrough
		case 3:
			if r.Mark(0, 3) {
				r.Goto(8)
				continue
			}
			r.LoadSlot(0)
			fallthrough
		case 5:
			if !r.Bang(1, 5, false) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Aug(4, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 8:
			r.LoadSlot(1)
			return r.Return(10)
		case 10:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_sumList: bad pc")
		}
	}
}

// proc_pipelineSquares_0 is the state machine of pipelineSquares|>0.
type proc_pipelineSquares_0 struct{ vm.Frame }

func machine_proc_pipelineSquares_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "pipelineSquares|>0", Params: 2, NumAux: 2,
		Slots:  []string{"n", "sq", "x_11"},
		Consts: []value.V{intLit("1")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_pipelineSquares_0); return f, &f.Frame },
	)
}

func (f *proc_pipelineSquares_0) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.Const(0)
			r.LoadSlot(0)
			r.Const(0)
			fallthrough
		case 3:
			if !r.ToBy(0, 3) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(2)
			r.Pop()
			r.LoadSlot(1)
			r.LoadSlot(2)
			fallthrough
		case 8:
			if !r.Call(1, 1, 8) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 9:
			return r.Yield(10)
		case 10:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_pipelineSquares_0: bad pc")
		}
	}
}

// proc_pipelineSquares is the state machine of pipelineSquares.
type proc_pipelineSquares struct{ vm.Frame }

func machine_proc_pipelineSquares() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "pipelineSquares", Params: 1, NumAux: 2,
		Slots:       []string{"n", "x_12"},
		Consts:      []value.V{intLit("1")},
		Globals:     []*value.Var{Global("sq")},
		GlobalNames: []string{"sq"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_pipelineSquares); return f, &f.Frame },
		machine_proc_pipelineSquares_0(),
	)
}

func (f *proc_pipelineSquares) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(12)
				continue
			}
			r.LoadSlot(0)
			r.LoadGlobal(0)
			r.Create(2, 0, -1)
			fallthrough
		case 4:
			if !r.Bang(1, 4, false) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(1)
			r.Pop()
			r.Const(0)
			r.LoadSlot(1)
			r.Arith(0)
			fallthrough
		case 10:
			return r.Yield(11)
		case 11:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 12:
			return r.ReturnFail()
		default:
			panic("translated proc_pipelineSquares: bad pc")
		}
	}
}

// proc_classify is the state machine of classify.
type proc_classify struct{ vm.Frame }

func machine_proc_classify() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "classify", Params: 1, NumAux: 3,
		Slots:  []string{"x", "(case)"},
		Consts: []value.V{intLit("1"), intLit("2"), intLit("3"), value.String("many"), value.String("one"), value.String("few")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_classify); return f, &f.Frame },
	)
}

func (f *proc_classify) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(25)
				continue
			}
			r.LoadSlot(0)
			r.BindSlot(1)
			r.Pop()
			fallthrough
		case 4:
			if r.Mark(1, 4) {
				r.Goto(9)
				continue
			}
			r.Const(0)
			if !r.CaseEq(1) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(1)
			r.Goto(19)
			continue
		case 9:
			if r.Mark(2, 9) {
				r.Goto(17)
				continue
			}
			fallthrough
		case 10:
			if r.Fork(10) {
				r.Goto(13)
				continue
			}
			r.Const(1)
			r.Goto(14)
			continue
		case 13:
			r.Const(2)
			fallthrough
		case 14:
			if !r.CaseEq(1) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(2)
			r.Goto(21)
			continue
		case 17:
			r.Const(3)
			r.Goto(22)
			continue
		case 19:
			r.Const(4)
			r.Goto(22)
			continue
		case 21:
			r.Const(5)
			fallthrough
		case 22:
			r.Cut(0)
			return r.Return(24)
		case 24:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 25:
			return r.ReturnFail()
		default:
			panic("translated proc_classify: bad pc")
		}
	}
}

// proc_countdown is the state machine of countdown.
type proc_countdown struct{ vm.Frame }

func machine_proc_countdown() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "countdown", Params: 1, NumAux: 3,
		Slots:  []string{"n"},
		Consts: []value.V{intLit("0"), intLit("1")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_countdown); return f, &f.Frame },
	)
}

func (f *proc_countdown) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(15)
				continue
			}
			r.LoadSlot(0)
			r.Const(0)
			if !r.CmpTest(2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(0)
			fallthrough
		case 5:
			if r.Mark(1, 5) {
				r.Goto(14)
				continue
			}
			fallthrough
		case 6:
			if r.Mark(2, 6) {
				r.Goto(10)
				continue
			}
			r.LoadSlot(0)
			fallthrough
		case 8:
			return r.Yield(9)
		case 9:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 10:
			r.Const(1)
			r.Aug(0, 1)
			r.Pop()
			r.Cut(1)
			fallthrough
		case 14:
			r.Goto(0)
			continue
		case 15:
			return r.ReturnFail()
		default:
			panic("translated proc_countdown: bad pc")
		}
	}
}

// proc_ticker is the state machine of ticker.
type proc_ticker struct{ vm.Frame }

func machine_proc_ticker() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "ticker", Params: 0, NumAux: 0,
		Slots:       []string{},
		Consts:      []value.V{intLit("0"), intLit("1")},
		Globals:     []*value.Var{static("static ticker.n"), static("static ticker.(initial)")},
		GlobalNames: []string{"static ticker.n", "static ticker.(initial)"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_ticker); return f, &f.Frame },
	)
}

func (f *proc_ticker) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if !r.InitOnce(1) {
				r.Goto(4)
				continue
			}
			r.Const(0)
			r.StoreGlobal(0)
			r.Pop()
			fallthrough
		case 4:
			r.Const(1)
			r.Aug(1, 0)
			r.Pop()
			r.LoadGlobal(0)
			return r.Return(9)
		case 9:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_ticker: bad pc")
		}
	}
}

// stmt1 is the state machine of a top-level statement.
type stmt1 struct{ vm.Frame }

func machine_stmt1() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "", Params: 0, NumAux: 0,
		Slots:       []string{},
		Consts:      []value.V{intLit("0")},
		Globals:     []*value.Var{Global("total")},
		GlobalNames: []string{"total"},
	}, func() (core.Gen, *vm.Frame) { f := new(stmt1); return f, &f.Frame },
	)
}

func (f *stmt1) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.Const(0)
			r.StoreGlobal(0)
			fallthrough
		case 2:
			return r.Yield(3)
		case 3:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated stmt1: bad pc")
		}
	}
}

// P_isprime is procedure isprime.
var P_isprime *value.Proc

// P_primesUpTo is procedure primesUpTo.
var P_primesUpTo *value.Proc

// P_chunk is procedure chunk.
var P_chunk *value.Proc

// P_spawnMap is procedure spawnMap.
var P_spawnMap *value.Proc

// P_sq is procedure sq.
var P_sq *value.Proc

// P_sumList is procedure sumList.
var P_sumList *value.Proc

// P_pipelineSquares is procedure pipelineSquares.
var P_pipelineSquares *value.Proc

// P_classify is procedure classify.
var P_classify *value.Proc

// P_countdown is procedure countdown.
var P_countdown *value.Proc

// P_ticker is procedure ticker.
var P_ticker *value.Proc

func init() {
	P_isprime = value.NewProc("isprime", 1, machine_proc_isprime().Call)
	P_primesUpTo = value.NewProc("primesUpTo", 1, machine_proc_primesUpTo().Call)
	P_chunk = value.NewProc("chunk", 2, machine_proc_chunk().Call)
	P_spawnMap = value.NewProc("spawnMap", 2, machine_proc_spawnMap().Call)
	P_sq = value.NewProc("sq", 1, machine_proc_sq().Call)
	P_sumList = value.NewProc("sumList", 1, machine_proc_sumList().Call)
	P_pipelineSquares = value.NewProc("pipelineSquares", 1, machine_proc_pipelineSquares().Call)
	P_classify = value.NewProc("classify", 1, machine_proc_classify().Call)
	P_countdown = value.NewProc("countdown", 1, machine_proc_countdown().Call)
	P_ticker = value.NewProc("ticker", 0, machine_proc_ticker().Call)
	Statements = append(Statements, machine_stmt1())
	declare()
}

// declare puts the program in its declared state: its statics and
// globals null, its procedures, records and classes bound.
func declare() {
	for _, v := range statics {
		v.Set(value.NullV)
	}
	Global("Counter").Set(CounterProc)
	Global("chunk").Set(P_chunk)
	Global("classify").Set(P_classify)
	Global("countdown").Set(P_countdown)
	Global("isprime").Set(P_isprime)
	Global("pipelineSquares").Set(P_pipelineSquares)
	Global("primesUpTo").Set(P_primesUpTo)
	Global("spawnMap").Set(P_spawnMap)
	Global("sq").Set(P_sq)
	Global("sumList").Set(P_sumList)
	Global("ticker").Set(P_ticker)
	Global("total").Set(value.NullV)
}
