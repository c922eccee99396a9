// Code generated by junicon translate; DO NOT EDIT.

// Package corpus_expressions holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package corpus_expressions

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

// proc_lane_driver_0 is the state machine of lane_driver_0.
type proc_lane_driver_0 struct{ vm.Frame }

func machine_proc_lane_driver_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_0", Params: 0, NumAux: 2,
		Slots:  []string{},
		Consts: []value.V{intLit("1"), intLit("10")},
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
				r.Goto(7)
				continue
			}
			r.Const(0)
			r.Const(1)
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
			panic("translated proc_lane_driver_0: bad pc")
		}
	}
}

// proc_lane_driver_1 is the state machine of lane_driver_1.
type proc_lane_driver_1 struct{ vm.Frame }

func machine_proc_lane_driver_1() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_1", Params: 0, NumAux: 1,
		Slots:  []string{},
		Consts: []value.V{intLit("1"), intLit("2")},
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
				r.Goto(6)
				continue
			}
			r.Const(0)
			r.Const(1)
			if !r.Cmp(2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 4:
			return r.Yield(5)
		case 5:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 6:
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
		Name: "lane_driver_2", Params: 0, NumAux: 1,
		Slots:  []string{},
		Consts: []value.V{intLit("42")},
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
				r.Goto(4)
				continue
			}
			r.Const(0)
			fallthrough
		case 2:
			return r.Yield(3)
		case 3:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 4:
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
		Name: "lane_driver_3", Params: 0, NumAux: 3,
		Slots:  []string{},
		Consts: []value.V{intLit("1"), intLit("3"), intLit("7"), intLit("9"), intLit("100")},
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
				r.Goto(16)
				continue
			}
			fallthrough
		case 1:
			if r.Fork(1) {
				r.Goto(13)
				continue
			}
			fallthrough
		case 2:
			if r.Fork(2) {
				r.Goto(8)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.Const(0)
			fallthrough
		case 6:
			if !r.ToBy(1, 6) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(12)
			continue
		case 8:
			r.Const(2)
			r.Const(3)
			r.Const(0)
			fallthrough
		case 11:
			if !r.ToBy(2, 11) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 12:
			r.Goto(14)
			continue
		case 13:
			r.Const(4)
			fallthrough
		case 14:
			return r.Yield(15)
		case 15:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 16:
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
		Name: "lane_driver_4", Params: 0, NumAux: 3,
		Slots:  []string{},
		Consts: []value.V{intLit("1"), intLit("5"), intLit("3")},
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
				r.Goto(12)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.Const(0)
			fallthrough
		case 4:
			if !r.ToBy(1, 4) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Pop()
			r.Const(0)
			r.Const(2)
			r.Const(0)
			fallthrough
		case 9:
			if !r.ToBy(2, 9) {
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
			panic("translated proc_lane_driver_4: bad pc")
		}
	}
}

// proc_lane_driver_5 is the state machine of lane_driver_5.
type proc_lane_driver_5 struct{ vm.Frame }

func machine_proc_lane_driver_5() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_5", Params: 0, NumAux: 3,
		Slots:  []string{"x_0", "x_1"},
		Consts: []value.V{intLit("1"), intLit("4")},
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
				r.Goto(18)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.Const(0)
			fallthrough
		case 4:
			if !r.ToBy(1, 4) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(0)
			r.Pop()
			r.Const(0)
			r.Const(1)
			r.Const(0)
			fallthrough
		case 10:
			if !r.ToBy(2, 10) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(1)
			r.Pop()
			r.LoadSlot(0)
			r.LoadSlot(1)
			r.Arith(2)
			fallthrough
		case 16:
			return r.Yield(17)
		case 17:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 18:
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
		Slots:  []string{"x_2", "x_5"},
		Consts: []value.V{intLit("1"), intLit("3"), intLit("4"), intLit("5")},
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
				r.Goto(19)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.Const(0)
			fallthrough
		case 4:
			if !r.ToBy(1, 4) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(0)
			r.Pop()
			fallthrough
		case 7:
			if r.Fork(7) {
				r.Goto(10)
				continue
			}
			r.Const(2)
			r.Goto(11)
			continue
		case 10:
			r.Const(3)
			fallthrough
		case 11:
			r.MakeList(1)
			r.BindSlot(1)
			r.Pop()
			r.LoadSlot(0)
			r.LoadSlot(1)
			r.MakeList(2)
			fallthrough
		case 17:
			return r.Yield(18)
		case 18:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 19:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_6: bad pc")
		}
	}
}

// proc_lane_driver_7 is the state machine of lane_driver_7.
type proc_lane_driver_7 struct{ vm.Frame }

func machine_proc_lane_driver_7() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_7", Params: 0, NumAux: 2,
		Slots:  []string{},
		Consts: []value.V{intLit("1"), intLit("20"), intLit("3")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_7); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_7) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(11)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.Const(0)
			fallthrough
		case 4:
			if !r.ToBy(1, 4) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Const(2)
			r.Arith(4)
			r.Const(0)
			if !r.Cmp(2) {
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
		case 11:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_7: bad pc")
		}
	}
}

// proc_lane_driver_8 is the state machine of lane_driver_8.
type proc_lane_driver_8 struct{ vm.Frame }

func machine_proc_lane_driver_8() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_8", Params: 0, NumAux: 1,
		Slots:  []string{"x_8/x_9", "x_10/x_11"},
		Consts: []value.V{value.String("a"), value.String("bc"), value.String("x"), value.String("yz")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_8); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_8) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(20)
				continue
			}
			fallthrough
		case 1:
			if r.Fork(1) {
				r.Goto(4)
				continue
			}
			r.Const(0)
			r.Goto(5)
			continue
		case 4:
			r.Const(1)
			fallthrough
		case 5:
			r.StoreSlot(0)
			r.BindSlot(0)
			r.Pop()
			fallthrough
		case 8:
			if r.Fork(8) {
				r.Goto(11)
				continue
			}
			r.Const(2)
			r.Goto(12)
			continue
		case 11:
			r.Const(3)
			fallthrough
		case 12:
			r.StoreSlot(1)
			r.BindSlot(1)
			r.Pop()
			r.LoadSlot(0)
			r.LoadSlot(1)
			r.Arith(6)
			fallthrough
		case 18:
			return r.Yield(19)
		case 19:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 20:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_8: bad pc")
		}
	}
}

// proc_lane_driver_9 is the state machine of lane_driver_9.
type proc_lane_driver_9 struct{ vm.Frame }

func machine_proc_lane_driver_9() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_9", Params: 0, NumAux: 2,
		Slots:  []string{},
		Consts: []value.V{intLit("1"), intLit("3000")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_9); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_9) Next() (value.V, bool) {
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
			r.Const(1)
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
			panic("translated proc_lane_driver_9: bad pc")
		}
	}
}

// proc_lane_driver_10 is the state machine of lane_driver_10.
type proc_lane_driver_10 struct{ vm.Frame }

func machine_proc_lane_driver_10() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_10", Params: 0, NumAux: 3,
		Slots:  []string{"x"},
		Consts: []value.V{intLit("0"), intLit("5"), intLit("9")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_10); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_10) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(13)
				continue
			}
			r.Const(0)
			r.StoreSlot(0)
			r.Pop()
			fallthrough
		case 4:
			if r.Mark(1, 4) {
				r.Goto(10)
				continue
			}
			r.Const(1)
			fallthrough
		case 6:
			if !r.RevAssign(0, 2, 6) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Const(2)
			if !r.CmpTest(2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(1)
			fallthrough
		case 10:
			r.LoadSlot(0)
			fallthrough
		case 11:
			return r.Yield(12)
		case 12:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 13:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_10: bad pc")
		}
	}
}

// proc_lane_driver_11_0 is the state machine of lane_driver_11<>0.
type proc_lane_driver_11_0 struct{ vm.Frame }

func machine_proc_lane_driver_11_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_11<>0", Params: 1, NumAux: 0,
		Slots:  []string{"y"},
		Consts: []value.V{intLit("1")},
		Boxes:  []bool{true}, Shares: true,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_11_0); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_11_0) Next() (value.V, bool) {
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
			panic("translated proc_lane_driver_11_0: bad pc")
		}
	}
}

// proc_lane_driver_11 is the state machine of lane_driver_11.
type proc_lane_driver_11 struct{ vm.Frame }

func machine_proc_lane_driver_11() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_11", Params: 0, NumAux: 2,
		Slots:  []string{"y", "g", "x_13"},
		Consts: []value.V{intLit("5")},
		Boxes:  []bool{true, false, false}, Shares: false,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_11); return f, &f.Frame },
		machine_proc_lane_driver_11_0(),
	)
}

func (f *proc_lane_driver_11) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(23)
				continue
			}
			r.BoxVar(0)
			r.Const(0)
			r.StoreVar()
			r.Pop()
			r.BoxVar(0)
			r.Create(1, 0, -3)
			r.StoreSlot(1)
			r.Pop()
			fallthrough
		case 9:
			if r.Mark(1, 9) {
				r.Goto(14)
				continue
			}
			r.LoadSlot(1)
			if !r.Activate(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(1)
			r.Pop()
			fallthrough
		case 14:
			r.LoadSlot(1)
			if !r.Activate(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(2)
			r.Pop()
			r.LoadBox(0)
			r.LoadSlot(2)
			r.MakeList(2)
			fallthrough
		case 21:
			return r.Yield(22)
		case 22:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 23:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_11: bad pc")
		}
	}
}

// proc_lane_driver_12 is the state machine of lane_driver_12.
type proc_lane_driver_12 struct{ vm.Frame }

func machine_proc_lane_driver_12() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_12", Params: 0, NumAux: 3,
		Slots:  []string{"L", "y", "x_17", "x_18/x_19/x_20", "x_21"},
		Consts: []value.V{intLit("4"), intLit("5"), intLit("2"), intLit("1"), intLit("3"), intLit("7")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_12); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_12) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(52)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.MakeList(2)
			r.StoreSlot(0)
			r.Pop()
			r.Const(2)
			r.StoreSlot(1)
			r.Pop()
			fallthrough
		case 9:
			if r.Mark(1, 9) {
				r.Goto(32)
				continue
			}
			fallthrough
		case 10:
			if r.Mark(2, 10) {
				r.Goto(31)
				continue
			}
			fallthrough
		case 11:
			if r.Fork(11) {
				r.Goto(14)
				continue
			}
			r.Const(3)
			r.Goto(15)
			continue
		case 14:
			r.Const(4)
			fallthrough
		case 15:
			if !r.CmpAug(4, 0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(2)
			r.Pop()
			fallthrough
		case 18:
			if r.Fork(18) {
				r.Goto(21)
				continue
			}
			r.Const(3)
			r.Goto(22)
			continue
		case 21:
			r.Const(2)
			fallthrough
		case 22:
			r.StoreSlot(3)
			r.BindSlot(3)
			r.Pop()
			r.LoadSlot(0)
			r.LoadSlot(3)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.LoadSlot(2)
			r.Aug(2, 2)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 31:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 32:
			if r.Fork(32) {
				r.Goto(36)
				continue
			}
			r.Const(5)
			if !r.CmpAug(4, 2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(50)
			continue
		case 36:
			r.LoadSlot(0)
			r.Const(3)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(3)
			r.Pop()
			r.LoadSlot(0)
			r.Const(2)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(4)
			r.Pop()
			r.LoadSlot(1)
			r.LoadSlot(3)
			r.LoadSlot(4)
			r.MakeList(3)
			fallthrough
		case 50:
			return r.Yield(51)
		case 51:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 52:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_12: bad pc")
		}
	}
}

// proc_lane_driver_13 is the state machine of lane_driver_13.
type proc_lane_driver_13 struct{ vm.Frame }

func machine_proc_lane_driver_13() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_13", Params: 0, NumAux: 2,
		Slots:  []string{},
		Consts: []value.V{intLit("1"), intLit("2"), builtins["write"], value.String("cannot assign to builtin write")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_13); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_13) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(13)
				continue
			}
			fallthrough
		case 1:
			if r.Fork(1) {
				r.Goto(7)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.Const(0)
			fallthrough
		case 5:
			if !r.ToBy(1, 5) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(11)
			continue
		case 7:
			r.Const(2)
			r.Const(0)
			r.Arith(0)
			r.Raise(106, 3)
		case 11:
			return r.Yield(12)
		case 12:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 13:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_13: bad pc")
		}
	}
}

// proc_lane_driver_14_0 is the state machine of lane_driver_14|<>0.
type proc_lane_driver_14_0 struct{ vm.Frame }

func machine_proc_lane_driver_14_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_14|<>0", Params: 0, NumAux: 0,
		Slots:  []string{},
		Consts: []value.V{value.String("break outside a loop")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_14_0); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_14_0) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.Raise(106, 0)
		default:
			panic("translated proc_lane_driver_14_0: bad pc")
		}
	}
}

// proc_lane_driver_14 is the state machine of lane_driver_14.
type proc_lane_driver_14 struct{ vm.Frame }

func machine_proc_lane_driver_14() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_14", Params: 0, NumAux: 4,
		Slots:  []string{},
		Consts: []value.V{intLit("1"), intLit("3")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_14); return f, &f.Frame },
		machine_proc_lane_driver_14_0(),
	)
}

func (f *proc_lane_driver_14) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(14)
				continue
			}
			fallthrough
		case 1:
			if r.Mark(1, 1) {
				r.Goto(13)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.Const(0)
			fallthrough
		case 5:
			if !r.ToBy(3, 5) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Pop()
			fallthrough
		case 7:
			if r.Mark(2, 7) {
				r.Goto(12)
				continue
			}
			r.Create(0, 0, 0)
			if !r.Activate(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(2)
			r.Pop()
			fallthrough
		case 12:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 13:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 14:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_14: bad pc")
		}
	}
}

// proc_lane_driver_15_0 is the state machine of lane_driver_15|<>0.
type proc_lane_driver_15_0 struct{ vm.Frame }

func machine_proc_lane_driver_15_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_15|<>0", Params: 1, NumAux: 0,
		Slots:  []string{"i"},
		Consts: []value.V{value.String("next outside a loop body")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_15_0); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_15_0) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.Raise(106, 0)
		default:
			panic("translated proc_lane_driver_15_0: bad pc")
		}
	}
}

// proc_lane_driver_15 is the state machine of lane_driver_15.
type proc_lane_driver_15 struct{ vm.Frame }

func machine_proc_lane_driver_15() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_15", Params: 0, NumAux: 4,
		Slots:  []string{"i"},
		Consts: []value.V{intLit("1"), intLit("3")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_15); return f, &f.Frame },
		machine_proc_lane_driver_15_0(),
	)
}

func (f *proc_lane_driver_15) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(16)
				continue
			}
			fallthrough
		case 1:
			if r.Mark(1, 1) {
				r.Goto(15)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.Const(0)
			fallthrough
		case 5:
			if !r.ToBy(3, 5) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(0)
			r.Pop()
			fallthrough
		case 8:
			if r.Mark(2, 8) {
				r.Goto(14)
				continue
			}
			r.LoadSlot(0)
			r.Create(1, 0, 0)
			if !r.Activate(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(2)
			r.Pop()
			fallthrough
		case 14:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 15:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 16:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_15: bad pc")
		}
	}
}

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

// P_lane_driver_7 is procedure lane_driver_7.
var P_lane_driver_7 *value.Proc

// P_lane_driver_8 is procedure lane_driver_8.
var P_lane_driver_8 *value.Proc

// P_lane_driver_9 is procedure lane_driver_9.
var P_lane_driver_9 *value.Proc

// P_lane_driver_10 is procedure lane_driver_10.
var P_lane_driver_10 *value.Proc

// P_lane_driver_11 is procedure lane_driver_11.
var P_lane_driver_11 *value.Proc

// P_lane_driver_12 is procedure lane_driver_12.
var P_lane_driver_12 *value.Proc

// P_lane_driver_13 is procedure lane_driver_13.
var P_lane_driver_13 *value.Proc

// P_lane_driver_14 is procedure lane_driver_14.
var P_lane_driver_14 *value.Proc

// P_lane_driver_15 is procedure lane_driver_15.
var P_lane_driver_15 *value.Proc

func init() {
	P_lane_driver_0 = value.NewProc("lane_driver_0", 0, machine_proc_lane_driver_0().Call)
	P_lane_driver_1 = value.NewProc("lane_driver_1", 0, machine_proc_lane_driver_1().Call)
	P_lane_driver_2 = value.NewProc("lane_driver_2", 0, machine_proc_lane_driver_2().Call)
	P_lane_driver_3 = value.NewProc("lane_driver_3", 0, machine_proc_lane_driver_3().Call)
	P_lane_driver_4 = value.NewProc("lane_driver_4", 0, machine_proc_lane_driver_4().Call)
	P_lane_driver_5 = value.NewProc("lane_driver_5", 0, machine_proc_lane_driver_5().Call)
	P_lane_driver_6 = value.NewProc("lane_driver_6", 0, machine_proc_lane_driver_6().Call)
	P_lane_driver_7 = value.NewProc("lane_driver_7", 0, machine_proc_lane_driver_7().Call)
	P_lane_driver_8 = value.NewProc("lane_driver_8", 0, machine_proc_lane_driver_8().Call)
	P_lane_driver_9 = value.NewProc("lane_driver_9", 0, machine_proc_lane_driver_9().Call)
	P_lane_driver_10 = value.NewProc("lane_driver_10", 0, machine_proc_lane_driver_10().Call)
	P_lane_driver_11 = value.NewProc("lane_driver_11", 0, machine_proc_lane_driver_11().Call)
	P_lane_driver_12 = value.NewProc("lane_driver_12", 0, machine_proc_lane_driver_12().Call)
	P_lane_driver_13 = value.NewProc("lane_driver_13", 0, machine_proc_lane_driver_13().Call)
	P_lane_driver_14 = value.NewProc("lane_driver_14", 0, machine_proc_lane_driver_14().Call)
	P_lane_driver_15 = value.NewProc("lane_driver_15", 0, machine_proc_lane_driver_15().Call)
	declare()
}

// declare puts the program in its declared state: its statics and
// globals null, its procedures, records and classes bound.
func declare() {
	for _, v := range statics {
		v.Set(value.NullV)
	}
	Global("lane_driver_0").Set(P_lane_driver_0)
	Global("lane_driver_1").Set(P_lane_driver_1)
	Global("lane_driver_10").Set(P_lane_driver_10)
	Global("lane_driver_11").Set(P_lane_driver_11)
	Global("lane_driver_12").Set(P_lane_driver_12)
	Global("lane_driver_13").Set(P_lane_driver_13)
	Global("lane_driver_14").Set(P_lane_driver_14)
	Global("lane_driver_15").Set(P_lane_driver_15)
	Global("lane_driver_2").Set(P_lane_driver_2)
	Global("lane_driver_3").Set(P_lane_driver_3)
	Global("lane_driver_4").Set(P_lane_driver_4)
	Global("lane_driver_5").Set(P_lane_driver_5)
	Global("lane_driver_6").Set(P_lane_driver_6)
	Global("lane_driver_7").Set(P_lane_driver_7)
	Global("lane_driver_8").Set(P_lane_driver_8)
	Global("lane_driver_9").Set(P_lane_driver_9)
}
