// Code generated by junicon translate; DO NOT EDIT.

// Package corpus_aug holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package corpus_aug

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

// P_point is the constructor for record point(x, y).
var P_point = value.NewProc("point", 2, func(args ...value.V) core.Gen {
	vals := make([]value.V, len(args))
	for i, a := range args {
		vals[i] = value.Deref(a)
	}
	return core.Unit(value.NewRecord("point", []string{"x", "y"}, vals))
})

// proc_onSlot is the state machine of onSlot.
type proc_onSlot struct{ vm.Frame }

func machine_proc_onSlot() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "onSlot", Params: 0, NumAux: 6,
		Slots:  []string{"x"},
		Consts: []value.V{intLit("1"), intLit("3"), intLit("2")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_onSlot); return f, &f.Frame },
	)
}

func (f *proc_onSlot) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.Const(0)
			r.StoreSlot(0)
			r.Pop()
			fallthrough
		case 3:
			if r.Mark(0, 3) {
				r.Goto(17)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.Const(0)
			fallthrough
		case 7:
			if !r.ToBy(2, 7) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Aug(0, 0)
			r.Pop()
			fallthrough
		case 10:
			if r.Mark(1, 10) {
				r.Goto(16)
				continue
			}
			fallthrough
		case 11:
			if r.Mark(3, 11) {
				r.Goto(15)
				continue
			}
			r.LoadSlot(0)
			fallthrough
		case 13:
			return r.Yield(14)
		case 14:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 15:
			r.Cut(1)
			fallthrough
		case 16:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 17:
			if r.Mark(4, 17) {
				r.Goto(26)
				continue
			}
			fallthrough
		case 18:
			if r.Fork(18) {
				r.Goto(22)
				continue
			}
			r.Const(2)
			if !r.CmpAug(0, 0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(24)
			continue
		case 22:
			r.LoadSlot(0)
			r.Unary(0)
			fallthrough
		case 24:
			return r.Yield(25)
		case 25:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 26:
			if r.Mark(5, 26) {
				r.Goto(31)
				continue
			}
			r.Const(2)
			if !r.CmpAug(0, 2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(5)
			r.Pop()
			fallthrough
		case 31:
			r.LoadSlot(0)
			return r.Return(33)
		case 33:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_onSlot: bad pc")
		}
	}
}

// proc_onGlobal is the state machine of onGlobal.
type proc_onGlobal struct{ vm.Frame }

func machine_proc_onGlobal() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "onGlobal", Params: 0, NumAux: 6,
		Slots:       []string{},
		Consts:      []value.V{intLit("10"), intLit("1"), intLit("3"), intLit("99")},
		Globals:     []*value.Var{Global("total")},
		GlobalNames: []string{"total"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_onGlobal); return f, &f.Frame },
	)
}

func (f *proc_onGlobal) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.Const(0)
			r.StoreGlobal(0)
			r.Pop()
			fallthrough
		case 3:
			if r.Mark(0, 3) {
				r.Goto(17)
				continue
			}
			r.Const(1)
			r.Const(2)
			r.Const(1)
			fallthrough
		case 7:
			if !r.ToBy(2, 7) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Aug(1, 1)
			r.Pop()
			fallthrough
		case 10:
			if r.Mark(1, 10) {
				r.Goto(16)
				continue
			}
			fallthrough
		case 11:
			if r.Mark(3, 11) {
				r.Goto(15)
				continue
			}
			r.LoadGlobal(0)
			fallthrough
		case 13:
			return r.Yield(14)
		case 14:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 15:
			r.Cut(1)
			fallthrough
		case 16:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 17:
			if r.Mark(4, 17) {
				r.Goto(25)
				continue
			}
			fallthrough
		case 18:
			if r.Fork(18) {
				r.Goto(22)
				continue
			}
			r.Const(3)
			if !r.CmpAug(1, 2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(23)
			continue
		case 22:
			r.LoadGlobal(0)
			fallthrough
		case 23:
			return r.Yield(24)
		case 24:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 25:
			if r.Mark(5, 25) {
				r.Goto(30)
				continue
			}
			r.Const(3)
			if !r.CmpAug(1, 0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(5)
			r.Pop()
			fallthrough
		case 30:
			r.LoadGlobal(0)
			return r.Return(32)
		case 32:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_onGlobal: bad pc")
		}
	}
}

// proc_onStatic is the state machine of onStatic.
type proc_onStatic struct{ vm.Frame }

func machine_proc_onStatic() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "onStatic", Params: 1, NumAux: 0,
		Slots:       []string{"k"},
		Consts:      []value.V{intLit("1")},
		Globals:     []*value.Var{static("static onStatic.s"), static("static onStatic.(initial)")},
		GlobalNames: []string{"static onStatic.s", "static onStatic.(initial)"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_onStatic); return f, &f.Frame },
	)
}

func (f *proc_onStatic) Next() (value.V, bool) {
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
			r.LoadSlot(0)
			r.Aug(1, 2)
			r.Pop()
			r.LoadGlobal(0)
			return r.Return(9)
		case 9:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_onStatic: bad pc")
		}
	}
}

// proc_capStatic is the state machine of capStatic.
type proc_capStatic struct{ vm.Frame }

func machine_proc_capStatic() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "capStatic", Params: 0, NumAux: 1,
		Slots:       []string{},
		Consts:      []value.V{intLit("0"), intLit("3"), intLit("1"), intLit("7")},
		Globals:     []*value.Var{static("static capStatic.m"), static("static capStatic.(initial)")},
		GlobalNames: []string{"static capStatic.m", "static capStatic.(initial)"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_capStatic); return f, &f.Frame },
	)
}

func (f *proc_capStatic) Next() (value.V, bool) {
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
			if r.Mark(0, 4) {
				r.Goto(15)
				continue
			}
			fallthrough
		case 5:
			if r.Fork(5) {
				r.Goto(11)
				continue
			}
			fallthrough
		case 6:
			if r.Fork(6) {
				r.Goto(9)
				continue
			}
			r.Const(1)
			r.Goto(10)
			continue
		case 9:
			r.Const(2)
			fallthrough
		case 10:
			r.Goto(12)
			continue
		case 11:
			r.Const(3)
			fallthrough
		case 12:
			if !r.CmpAug(1, 0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(0)
			r.Pop()
			fallthrough
		case 15:
			r.LoadGlobal(0)
			return r.Return(17)
		case 17:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_capStatic: bad pc")
		}
	}
}

// proc_onBoxed_0 is the state machine of onBoxed<>0.
type proc_onBoxed_0 struct{ vm.Frame }

func machine_proc_onBoxed_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "onBoxed<>0", Params: 1, NumAux: 0,
		Slots:  []string{"x"},
		Consts: []value.V{intLit("10")},
		Boxes:  []bool{true}, Shares: true,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_onBoxed_0); return f, &f.Frame },
	)
}

func (f *proc_onBoxed_0) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.BoxVar(0)
			r.Const(0)
			r.Aug(2, 0)
			fallthrough
		case 3:
			return r.Yield(4)
		case 4:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_onBoxed_0: bad pc")
		}
	}
}

// proc_onBoxed is the state machine of onBoxed.
type proc_onBoxed struct{ vm.Frame }

func machine_proc_onBoxed() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "onBoxed", Params: 0, NumAux: 5,
		Slots:  []string{"x", "g", "x_4/x_5"},
		Consts: []value.V{intLit("1"), intLit("2"), intLit("3"), intLit("0")},
		Boxes:  []bool{true, false, false}, Shares: false,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_onBoxed); return f, &f.Frame },
		machine_proc_onBoxed_0(),
	)
}

func (f *proc_onBoxed) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.BoxVar(0)
			r.Const(0)
			r.StoreVar()
			r.Pop()
			r.BoxVar(0)
			r.Create(1, 0, -3)
			r.StoreSlot(1)
			r.Pop()
			fallthrough
		case 8:
			if r.Mark(0, 8) {
				r.Goto(27)
				continue
			}
			fallthrough
		case 9:
			if r.Fork(9) {
				r.Goto(12)
				continue
			}
			r.Const(1)
			r.Goto(13)
			continue
		case 12:
			r.Const(2)
			fallthrough
		case 13:
			r.StoreSlot(2)
			r.BindSlot(2)
			r.Pop()
			r.BoxVar(0)
			r.LoadSlot(2)
			r.Aug(2, 2)
			r.Pop()
			fallthrough
		case 20:
			if r.Mark(1, 20) {
				r.Goto(26)
				continue
			}
			fallthrough
		case 21:
			if r.Mark(2, 21) {
				r.Goto(25)
				continue
			}
			r.LoadBox(0)
			fallthrough
		case 23:
			return r.Yield(24)
		case 24:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 25:
			r.Cut(1)
			fallthrough
		case 26:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 27:
			if r.Mark(3, 27) {
				r.Goto(35)
				continue
			}
			fallthrough
		case 28:
			if r.Fork(28) {
				r.Goto(32)
				continue
			}
			r.LoadSlot(1)
			if !r.Activate(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(33)
			continue
		case 32:
			r.LoadBox(0)
			fallthrough
		case 33:
			return r.Yield(34)
		case 34:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 35:
			if r.Mark(4, 35) {
				r.Goto(44)
				continue
			}
			fallthrough
		case 36:
			if r.Fork(36) {
				r.Goto(41)
				continue
			}
			r.BoxVar(0)
			r.Const(3)
			if !r.CmpAug(2, 0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(42)
			continue
		case 41:
			r.LoadBox(0)
			fallthrough
		case 42:
			return r.Yield(43)
		case 43:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 44:
			return r.ReturnFail()
		default:
			panic("translated proc_onBoxed: bad pc")
		}
	}
}

// proc_onIndex is the state machine of onIndex.
type proc_onIndex struct{ vm.Frame }

func machine_proc_onIndex() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "onIndex", Params: 0, NumAux: 3,
		Slots:  []string{"L", "x_7"},
		Consts: []value.V{intLit("1"), intLit("2"), intLit("3"), intLit("5"), intLit("9")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_onIndex); return f, &f.Frame },
	)
}

func (f *proc_onIndex) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.Const(0)
			r.Const(1)
			r.Const(2)
			r.MakeList(3)
			r.StoreSlot(0)
			r.Pop()
			fallthrough
		case 6:
			if r.Mark(0, 6) {
				r.Goto(19)
				continue
			}
			r.Const(0)
			r.Const(2)
			r.Const(0)
			fallthrough
		case 10:
			if !r.ToBy(1, 10) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(1)
			r.Pop()
			r.LoadSlot(0)
			r.Const(1)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.LoadSlot(1)
			r.Aug(2, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 19:
			if r.Mark(2, 19) {
				r.Goto(34)
				continue
			}
			fallthrough
		case 20:
			if r.Fork(20) {
				r.Goto(27)
				continue
			}
			r.LoadSlot(0)
			r.Const(2)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Const(3)
			if !r.CmpAug(2, 2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(32)
			continue
		case 27:
			r.LoadSlot(0)
			r.Const(0)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Const(4)
			if !r.CmpAug(2, 0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 32:
			r.Cut(2)
			r.Pop()
			fallthrough
		case 34:
			r.LoadSlot(0)
			return r.Return(36)
		case 36:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_onIndex: bad pc")
		}
	}
}

// proc_onField is the state machine of onField.
type proc_onField struct{ vm.Frame }

func machine_proc_onField() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "onField", Params: 0, NumAux: 5,
		Slots:       []string{"p", "x_9"},
		Consts:      []value.V{intLit("1"), intLit("2"), value.String("y"), intLit("10"), value.String("x"), intLit("3")},
		Globals:     []*value.Var{Global("point")},
		GlobalNames: []string{"point"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_onField); return f, &f.Frame },
	)
}

func (f *proc_onField) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(8)
				continue
			}
			r.LoadGlobal(0)
			r.Const(0)
			r.Const(1)
			fallthrough
		case 4:
			if !r.Call(2, 1, 4) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(0)
			r.Cut(0)
			r.Pop()
			fallthrough
		case 8:
			r.LoadSlot(0)
			r.Field(2)
			r.Const(3)
			r.Aug(2, 2)
			r.Pop()
			fallthrough
		case 13:
			if r.Mark(2, 13) {
				r.Goto(25)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.Const(0)
			fallthrough
		case 17:
			if !r.ToBy(3, 17) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(1)
			r.Pop()
			r.LoadSlot(0)
			r.Field(4)
			r.LoadSlot(1)
			r.Aug(2, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 25:
			if r.Mark(4, 25) {
				r.Goto(36)
				continue
			}
			fallthrough
		case 26:
			if r.Fork(26) {
				r.Goto(32)
				continue
			}
			r.LoadSlot(0)
			r.Field(2)
			r.Const(5)
			if !r.CmpAug(2, 0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(34)
			continue
		case 32:
			r.LoadSlot(0)
			r.Field(2)
			fallthrough
		case 34:
			return r.Yield(35)
		case 35:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 36:
			r.LoadSlot(0)
			r.Field(4)
			r.LoadSlot(0)
			r.Field(2)
			r.MakeList(2)
			return r.Return(42)
		case 42:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_onField: bad pc")
		}
	}
}

// proc_onBang is the state machine of onBang.
type proc_onBang struct{ vm.Frame }

func machine_proc_onBang() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "onBang", Params: 0, NumAux: 4,
		Slots:  []string{"x_10/x_11", "L", "x_12"},
		Consts: []value.V{intLit("1"), intLit("5"), intLit("2"), intLit("3")},
		Boxes:  []bool{false, true, false}, Shares: false,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_onBang); return f, &f.Frame },
	)
}

func (f *proc_onBang) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.Const(0)
			r.Const(1)
			r.Const(2)
			r.MakeList(3)
			r.BindSlot(0)
			r.Pop()
			r.BoxVar(1)
			r.LoadSlot(0)
			r.StoreVar()
			r.Pop()
			fallthrough
		case 10:
			if r.Mark(0, 10) {
				r.Goto(16)
				continue
			}
			r.LoadBox(1)
			fallthrough
		case 12:
			if !r.Bang(1, 12, true) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Const(3)
			if !r.CmpAug(2, 0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			if !r.Fail() {
				return nil, false
			}
			continue
		case 16:
			if r.Mark(2, 16) {
				r.Goto(29)
				continue
			}
			fallthrough
		case 17:
			if r.Fork(17) {
				r.Goto(20)
				continue
			}
			r.Const(0)
			r.Goto(21)
			continue
		case 20:
			r.Const(2)
			fallthrough
		case 21:
			r.StoreSlot(0)
			r.BindSlot(2)
			r.Pop()
			r.LoadBox(1)
			fallthrough
		case 25:
			if !r.Bang(3, 25, true) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.LoadSlot(2)
			r.Aug(2, 1)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 29:
			r.LoadBox(1)
			return r.Return(31)
		case 31:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_onBang: bad pc")
		}
	}
}

// proc_lane_driver_0 is the state machine of lane_driver_0.
type proc_lane_driver_0 struct{ vm.Frame }

func machine_proc_lane_driver_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_0", Params: 0, NumAux: 2,
		Slots:       []string{},
		Globals:     []*value.Var{Global("onSlot")},
		GlobalNames: []string{"onSlot"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_0); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_0) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(5)
				continue
			}
			r.LoadGlobal(0)
			fallthrough
		case 2:
			if !r.Call(0, 1, 2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 3:
			return r.Yield(4)
		case 4:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 5:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_0: bad pc")
		}
	}
}

// proc_lane_driver_1 is the state machine of lane_driver_1.
type proc_lane_driver_1 struct{ vm.Frame }

func machine_proc_lane_driver_1() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_1", Params: 0, NumAux: 2,
		Slots:       []string{},
		Globals:     []*value.Var{Global("onGlobal"), Global("total")},
		GlobalNames: []string{"onGlobal", "total"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_1); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_1) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(8)
				continue
			}
			fallthrough
		case 1:
			if r.Fork(1) {
				r.Goto(5)
				continue
			}
			r.LoadGlobal(0)
			fallthrough
		case 3:
			if !r.Call(0, 1, 3) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(6)
			continue
		case 5:
			r.LoadGlobal(1)
			fallthrough
		case 6:
			return r.Yield(7)
		case 7:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 8:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_1: bad pc")
		}
	}
}

// proc_lane_driver_2 is the state machine of lane_driver_2.
type proc_lane_driver_2 struct{ vm.Frame }

func machine_proc_lane_driver_2() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_2", Params: 0, NumAux: 6,
		Slots:       []string{},
		Consts:      []value.V{intLit("2"), intLit("3"), intLit("4")},
		Globals:     []*value.Var{Global("onStatic"), Global("capStatic")},
		GlobalNames: []string{"onStatic", "capStatic"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_2); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_2) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(24)
				continue
			}
			fallthrough
		case 1:
			if r.Fork(1) {
				r.Goto(20)
				continue
			}
			fallthrough
		case 2:
			if r.Fork(2) {
				r.Goto(17)
				continue
			}
			fallthrough
		case 3:
			if r.Fork(3) {
				r.Goto(13)
				continue
			}
			fallthrough
		case 4:
			if r.Fork(4) {
				r.Goto(9)
				continue
			}
			r.LoadGlobal(0)
			r.Const(0)
			fallthrough
		case 7:
			if !r.Call(1, 1, 7) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(12)
			continue
		case 9:
			r.LoadGlobal(0)
			r.Const(1)
			fallthrough
		case 11:
			if !r.Call(1, 2, 11) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 12:
			r.Goto(16)
			continue
		case 13:
			r.LoadGlobal(0)
			r.Const(2)
			fallthrough
		case 15:
			if !r.Call(1, 3, 15) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 16:
			r.Goto(19)
			continue
		case 17:
			r.LoadGlobal(1)
			fallthrough
		case 18:
			if !r.Call(0, 4, 18) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 19:
			r.Goto(22)
			continue
		case 20:
			r.LoadGlobal(1)
			fallthrough
		case 21:
			if !r.Call(0, 5, 21) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 22:
			return r.Yield(23)
		case 23:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 24:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_2: bad pc")
		}
	}
}

// proc_lane_driver_3 is the state machine of lane_driver_3.
type proc_lane_driver_3 struct{ vm.Frame }

func machine_proc_lane_driver_3() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_3", Params: 0, NumAux: 2,
		Slots:       []string{},
		Globals:     []*value.Var{Global("onBoxed")},
		GlobalNames: []string{"onBoxed"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_3); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_3) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(5)
				continue
			}
			r.LoadGlobal(0)
			fallthrough
		case 2:
			if !r.Call(0, 1, 2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 3:
			return r.Yield(4)
		case 4:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 5:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_3: bad pc")
		}
	}
}

// proc_lane_driver_4 is the state machine of lane_driver_4.
type proc_lane_driver_4 struct{ vm.Frame }

func machine_proc_lane_driver_4() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_4", Params: 0, NumAux: 2,
		Slots:       []string{},
		Globals:     []*value.Var{Global("onIndex")},
		GlobalNames: []string{"onIndex"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_4); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_4) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(5)
				continue
			}
			r.LoadGlobal(0)
			fallthrough
		case 2:
			if !r.Call(0, 1, 2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 3:
			return r.Yield(4)
		case 4:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 5:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_4: bad pc")
		}
	}
}

// proc_lane_driver_5 is the state machine of lane_driver_5.
type proc_lane_driver_5 struct{ vm.Frame }

func machine_proc_lane_driver_5() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_5", Params: 0, NumAux: 2,
		Slots:       []string{},
		Globals:     []*value.Var{Global("onField")},
		GlobalNames: []string{"onField"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_5); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_5) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(5)
				continue
			}
			r.LoadGlobal(0)
			fallthrough
		case 2:
			if !r.Call(0, 1, 2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 3:
			return r.Yield(4)
		case 4:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 5:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_5: bad pc")
		}
	}
}

// proc_lane_driver_6 is the state machine of lane_driver_6.
type proc_lane_driver_6 struct{ vm.Frame }

func machine_proc_lane_driver_6() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_6", Params: 0, NumAux: 2,
		Slots:       []string{},
		Globals:     []*value.Var{Global("onBang")},
		GlobalNames: []string{"onBang"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_6); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_6) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(5)
				continue
			}
			r.LoadGlobal(0)
			fallthrough
		case 2:
			if !r.Call(0, 1, 2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 3:
			return r.Yield(4)
		case 4:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 5:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_6: bad pc")
		}
	}
}

// P_onSlot is procedure onSlot.
var P_onSlot *value.Proc

// P_onGlobal is procedure onGlobal.
var P_onGlobal *value.Proc

// P_onStatic is procedure onStatic.
var P_onStatic *value.Proc

// P_capStatic is procedure capStatic.
var P_capStatic *value.Proc

// P_onBoxed is procedure onBoxed.
var P_onBoxed *value.Proc

// P_onIndex is procedure onIndex.
var P_onIndex *value.Proc

// P_onField is procedure onField.
var P_onField *value.Proc

// P_onBang is procedure onBang.
var P_onBang *value.Proc

// P_lane_driver_0 is procedure lane_driver_0.
var P_lane_driver_0 *value.Proc

// P_lane_driver_1 is procedure lane_driver_1.
var P_lane_driver_1 *value.Proc

// P_lane_driver_2 is procedure lane_driver_2.
var P_lane_driver_2 *value.Proc

// P_lane_driver_3 is procedure lane_driver_3.
var P_lane_driver_3 *value.Proc

// P_lane_driver_4 is procedure lane_driver_4.
var P_lane_driver_4 *value.Proc

// P_lane_driver_5 is procedure lane_driver_5.
var P_lane_driver_5 *value.Proc

// P_lane_driver_6 is procedure lane_driver_6.
var P_lane_driver_6 *value.Proc

func init() {
	P_onSlot = value.NewProc("onSlot", 0, machine_proc_onSlot().Call)
	P_onGlobal = value.NewProc("onGlobal", 0, machine_proc_onGlobal().Call)
	P_onStatic = value.NewProc("onStatic", 1, machine_proc_onStatic().Call)
	P_capStatic = value.NewProc("capStatic", 0, machine_proc_capStatic().Call)
	P_onBoxed = value.NewProc("onBoxed", 0, machine_proc_onBoxed().Call)
	P_onIndex = value.NewProc("onIndex", 0, machine_proc_onIndex().Call)
	P_onField = value.NewProc("onField", 0, machine_proc_onField().Call)
	P_onBang = value.NewProc("onBang", 0, machine_proc_onBang().Call)
	P_lane_driver_0 = value.NewProc("lane_driver_0", 0, machine_proc_lane_driver_0().Call)
	P_lane_driver_1 = value.NewProc("lane_driver_1", 0, machine_proc_lane_driver_1().Call)
	P_lane_driver_2 = value.NewProc("lane_driver_2", 0, machine_proc_lane_driver_2().Call)
	P_lane_driver_3 = value.NewProc("lane_driver_3", 0, machine_proc_lane_driver_3().Call)
	P_lane_driver_4 = value.NewProc("lane_driver_4", 0, machine_proc_lane_driver_4().Call)
	P_lane_driver_5 = value.NewProc("lane_driver_5", 0, machine_proc_lane_driver_5().Call)
	P_lane_driver_6 = value.NewProc("lane_driver_6", 0, machine_proc_lane_driver_6().Call)
	declare()
}

// declare puts the program in its declared state: its statics and
// globals null, its procedures, records and classes bound.
func declare() {
	for _, v := range statics {
		v.Set(value.NullV)
	}
	Global("capStatic").Set(P_capStatic)
	Global("lane_driver_0").Set(P_lane_driver_0)
	Global("lane_driver_1").Set(P_lane_driver_1)
	Global("lane_driver_2").Set(P_lane_driver_2)
	Global("lane_driver_3").Set(P_lane_driver_3)
	Global("lane_driver_4").Set(P_lane_driver_4)
	Global("lane_driver_5").Set(P_lane_driver_5)
	Global("lane_driver_6").Set(P_lane_driver_6)
	Global("onBang").Set(P_onBang)
	Global("onBoxed").Set(P_onBoxed)
	Global("onField").Set(P_onField)
	Global("onGlobal").Set(P_onGlobal)
	Global("onIndex").Set(P_onIndex)
	Global("onSlot").Set(P_onSlot)
	Global("onStatic").Set(P_onStatic)
	Global("point").Set(P_point)
	Global("total").Set(value.NullV)
}
