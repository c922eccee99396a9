// Code generated by junicon translate; DO NOT EDIT.

// Package corpus_lowered holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package corpus_lowered

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

// proc_sharedCounter_0 is the state machine of sharedCounter<>0.
type proc_sharedCounter_0 struct{ vm.Frame }

func machine_proc_sharedCounter_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "sharedCounter<>0", Params: 1, NumAux: 0,
		Slots:  []string{"x"},
		Consts: []value.V{intLit("10")},
		Boxes:  []bool{true}, Shares: true,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_sharedCounter_0); return f, &f.Frame },
	)
}

func (f *proc_sharedCounter_0) Next() (value.V, bool) {
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
			panic("translated proc_sharedCounter_0: bad pc")
		}
	}
}

// proc_sharedCounter is the state machine of sharedCounter.
type proc_sharedCounter struct{ vm.Frame }

func machine_proc_sharedCounter() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "sharedCounter", Params: 0, NumAux: 2,
		Slots:  []string{"x", "g"},
		Consts: []value.V{intLit("1")},
		Boxes:  []bool{true, false}, Shares: false,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_sharedCounter); return f, &f.Frame },
		machine_proc_sharedCounter_0(),
	)
}

func (f *proc_sharedCounter) Next() (value.V, bool) {
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
				r.Goto(13)
				continue
			}
			r.LoadSlot(1)
			if !r.Activate(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(0)
			r.Pop()
			fallthrough
		case 13:
			r.BoxVar(0)
			r.Const(0)
			r.Aug(2, 0)
			r.Pop()
			fallthrough
		case 17:
			if r.Mark(1, 17) {
				r.Goto(28)
				continue
			}
			fallthrough
		case 18:
			if r.Fork(18) {
				r.Goto(25)
				continue
			}
			fallthrough
		case 19:
			if r.Fork(19) {
				r.Goto(22)
				continue
			}
			r.LoadBox(0)
			r.Goto(24)
			continue
		case 22:
			r.LoadSlot(1)
			if !r.Activate(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 24:
			r.Goto(26)
			continue
		case 25:
			r.LoadBox(0)
			fallthrough
		case 26:
			return r.Yield(27)
		case 27:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 28:
			return r.ReturnFail()
		default:
			panic("translated proc_sharedCounter: bad pc")
		}
	}
}

// proc_zeroed is the state machine of zeroed.
type proc_zeroed struct{ vm.Frame }

func machine_proc_zeroed() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "zeroed", Params: 1, NumAux: 2,
		Slots:  []string{"L"},
		Consts: []value.V{intLit("0")},
		Boxes:  []bool{true}, Shares: false,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_zeroed); return f, &f.Frame },
	)
}

func (f *proc_zeroed) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(6)
				continue
			}
			r.LoadBox(0)
			fallthrough
		case 2:
			if !r.Bang(1, 2, true) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Const(0)
			r.StoreVar()
			if !r.Fail() {
				return nil, false
			}
			continue
		case 6:
			r.LoadBox(0)
			return r.Return(8)
		case 8:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_zeroed: bad pc")
		}
	}
}

// proc_bumped is the state machine of bumped.
type proc_bumped struct{ vm.Frame }

func machine_proc_bumped() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "bumped", Params: 1, NumAux: 2,
		Slots:  []string{"L"},
		Consts: []value.V{intLit("1")},
		Boxes:  []bool{true}, Shares: false,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_bumped); return f, &f.Frame },
	)
}

func (f *proc_bumped) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(6)
				continue
			}
			r.LoadBox(0)
			fallthrough
		case 2:
			if !r.Bang(1, 2, true) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Const(0)
			r.Aug(2, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 6:
			r.LoadBox(0)
			return r.Return(8)
		case 8:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_bumped: bad pc")
		}
	}
}

// proc_either is the state machine of either.
type proc_either struct{ vm.Frame }

func machine_proc_either() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "either", Params: 0, NumAux: 1,
		Slots:  []string{"a", "b"},
		Consts: []value.V{intLit("1"), intLit("2"), intLit("7")},
		Boxes:  []bool{true, true}, Shares: false,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_either); return f, &f.Frame },
	)
}

func (f *proc_either) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.BoxVar(0)
			r.Const(0)
			r.StoreVar()
			r.Pop()
			r.BoxVar(1)
			r.Const(1)
			r.StoreVar()
			r.Pop()
			fallthrough
		case 8:
			if r.Mark(0, 8) {
				r.Goto(16)
				continue
			}
			fallthrough
		case 9:
			if r.Fork(9) {
				r.Goto(12)
				continue
			}
			r.BoxVar(0)
			r.Goto(13)
			continue
		case 12:
			r.BoxVar(1)
			fallthrough
		case 13:
			r.Const(2)
			r.StoreVar()
			if !r.Fail() {
				return nil, false
			}
			continue
		case 16:
			r.LoadBox(0)
			r.LoadBox(1)
			r.MakeList(2)
			return r.Return(20)
		case 20:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_either: bad pc")
		}
	}
}

// proc_picks is the state machine of picks.
type proc_picks struct{ vm.Frame }

func machine_proc_picks() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "picks", Params: 0, NumAux: 1,
		Slots:  []string{},
		Consts: []value.V{intLit("5"), value.String("z"), intLit("1"), value.String("none")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_picks); return f, &f.Frame },
	)
}

func (f *proc_picks) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(21)
				continue
			}
			fallthrough
		case 1:
			if r.Fork(1) {
				r.Goto(14)
				continue
			}
			fallthrough
		case 2:
			if r.Fork(2) {
				r.Goto(11)
				continue
			}
			fallthrough
		case 3:
			if r.Fork(3) {
				r.Goto(8)
				continue
			}
			r.Const(0)
			r.MakeList(1)
			if !r.Random() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(10)
			continue
		case 8:
			r.Const(1)
			if !r.Random() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 10:
			r.Goto(13)
			continue
		case 11:
			r.Const(2)
			if !r.Random() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 13:
			r.Goto(19)
			continue
		case 14:
			if r.Fork(14) {
				r.Goto(18)
				continue
			}
			r.MakeList(0)
			if !r.Random() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(19)
			continue
		case 18:
			r.Const(3)
			fallthrough
		case 19:
			return r.Yield(20)
		case 20:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 21:
			return r.ReturnFail()
		default:
			panic("translated proc_picks: bad pc")
		}
	}
}

// proc_nestedShare_0_0 is the state machine of nestedShare|<>0<>0.
type proc_nestedShare_0_0 struct{ vm.Frame }

func machine_proc_nestedShare_0_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "nestedShare|<>0<>0", Params: 1, NumAux: 0,
		Slots:  []string{"y"},
		Consts: []value.V{intLit("1")},
		Boxes:  []bool{true}, Shares: true,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_nestedShare_0_0); return f, &f.Frame },
	)
}

func (f *proc_nestedShare_0_0) Next() (value.V, bool) {
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
			panic("translated proc_nestedShare_0_0: bad pc")
		}
	}
}

// proc_nestedShare_0 is the state machine of nestedShare|<>0.
type proc_nestedShare_0 struct{ vm.Frame }

func machine_proc_nestedShare_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "nestedShare|<>0", Params: 3, NumAux: 4,
		Slots:  []string{"y", "g", "L", "x_2"},
		Consts: []value.V{intLit("1"), intLit("2")},
		Boxes:  []bool{true, false, true, false}, Shares: false,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_nestedShare_0); return f, &f.Frame },
		machine_proc_nestedShare_0_0(),
	)
}

func (f *proc_nestedShare_0) Next() (value.V, bool) {
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
				r.Goto(13)
				continue
			}
			r.LoadSlot(1)
			if !r.Activate(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(0)
			r.Pop()
			fallthrough
		case 13:
			r.Const(0)
			r.Const(1)
			r.MakeList(2)
			r.BindSlot(3)
			r.Pop()
			r.BoxVar(2)
			r.LoadSlot(3)
			r.StoreVar()
			r.Pop()
			fallthrough
		case 22:
			if r.Mark(1, 22) {
				r.Goto(30)
				continue
			}
			fallthrough
		case 23:
			if r.Mark(2, 23) {
				r.Goto(29)
				continue
			}
			r.LoadBox(2)
			fallthrough
		case 25:
			if !r.Bang(3, 25, true) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.LoadBox(0)
			r.StoreVar()
			if !r.Fail() {
				return nil, false
			}
			continue
		case 29:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 30:
			r.LoadBox(2)
			fallthrough
		case 31:
			return r.Yield(32)
		case 32:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_nestedShare_0: bad pc")
		}
	}
}

// proc_nestedShare is the state machine of nestedShare.
type proc_nestedShare struct{ vm.Frame }

func machine_proc_nestedShare() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "nestedShare", Params: 0, NumAux: 1,
		Slots: []string{"c", "y", "g", "L"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_nestedShare); return f, &f.Frame },
		machine_proc_nestedShare_0(),
	)
}

func (f *proc_nestedShare) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadSlot(1)
			r.LoadSlot(2)
			r.LoadSlot(3)
			r.Create(3, 0, 0)
			r.StoreSlot(0)
			r.Pop()
			fallthrough
		case 6:
			if r.Mark(0, 6) {
				r.Goto(12)
				continue
			}
			r.LoadSlot(0)
			if !r.Activate(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(0)
			return r.Return(11)
		case 11:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 12:
			return r.ReturnFail()
		default:
			panic("translated proc_nestedShare: bad pc")
		}
	}
}

// proc_leftScan is the state machine of leftScan.
type proc_leftScan struct{ vm.Frame }

func machine_proc_leftScan() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "leftScan", Params: 0, NumAux: 6,
		Slots:  []string{},
		Consts: []value.V{intLit("1"), intLit("3"), value.String("xyz"), builtins["move"]},
		Scan:   scanHolder,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_leftScan); return f, &f.Frame },
	)
}

func (f *proc_leftScan) Next() (value.V, bool) {
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
			if !r.ToBy(2, 4) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Pop()
			fallthrough
		case 6:
			if r.Mark(1, 6) {
				r.Goto(18)
				continue
			}
			fallthrough
		case 7:
			if r.Mark(3, 7) {
				r.Goto(17)
				continue
			}
			r.Const(2)
			fallthrough
		case 9:
			if !r.ScanBegin(1, 4, 9) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Const(3)
			r.Const(0)
			fallthrough
		case 12:
			if !r.Call(1, 5, 12) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Pop()
			r.Cut(0)
			r.ScanLeave(0, 4)
			r.Goto(19)
			continue
		case 17:
			r.Cut(1)
			fallthrough
		case 18:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 19:
			r.ScanVar(0)
			return r.Return(21)
		case 21:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_leftScan: bad pc")
		}
	}
}

// proc_lane_driver_0 is the state machine of lane_driver_0.
type proc_lane_driver_0 struct{ vm.Frame }

func machine_proc_lane_driver_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_0", Params: 0, NumAux: 2,
		Slots:       []string{},
		Globals:     []*value.Var{Global("sharedCounter")},
		GlobalNames: []string{"sharedCounter"},
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
		Name: "lane_driver_1", Params: 0, NumAux: 3,
		Slots:       []string{"x_6/x_7"},
		Consts:      []value.V{intLit("1"), intLit("2"), intLit("3")},
		Globals:     []*value.Var{Global("zeroed"), Global("bumped")},
		GlobalNames: []string{"zeroed", "bumped"},
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
				r.Goto(22)
				continue
			}
			fallthrough
		case 1:
			if r.Fork(1) {
				r.Goto(12)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.Const(2)
			r.MakeList(3)
			r.BindSlot(0)
			r.Pop()
			r.LoadGlobal(0)
			r.LoadSlot(0)
			fallthrough
		case 10:
			if !r.Call(1, 1, 10) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(20)
			continue
		case 12:
			r.Const(0)
			r.Const(1)
			r.MakeList(2)
			r.BindSlot(0)
			r.Pop()
			r.LoadGlobal(1)
			r.LoadSlot(0)
			fallthrough
		case 19:
			if !r.Call(1, 2, 19) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 20:
			return r.Yield(21)
		case 21:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 22:
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
		Name: "lane_driver_2", Params: 0, NumAux: 2,
		Slots:       []string{},
		Globals:     []*value.Var{Global("either")},
		GlobalNames: []string{"either"},
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
		Globals:     []*value.Var{Global("picks")},
		GlobalNames: []string{"picks"},
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
		Globals:     []*value.Var{Global("nestedShare")},
		GlobalNames: []string{"nestedShare"},
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
		Globals:     []*value.Var{Global("leftScan")},
		GlobalNames: []string{"leftScan"},
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

// P_sharedCounter is procedure sharedCounter.
var P_sharedCounter *value.Proc

// P_zeroed is procedure zeroed.
var P_zeroed *value.Proc

// P_bumped is procedure bumped.
var P_bumped *value.Proc

// P_either is procedure either.
var P_either *value.Proc

// P_picks is procedure picks.
var P_picks *value.Proc

// P_nestedShare is procedure nestedShare.
var P_nestedShare *value.Proc

// P_leftScan is procedure leftScan.
var P_leftScan *value.Proc

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

func init() {
	P_sharedCounter = value.NewProc("sharedCounter", 0, machine_proc_sharedCounter().Call)
	P_zeroed = value.NewProc("zeroed", 1, machine_proc_zeroed().Call)
	P_bumped = value.NewProc("bumped", 1, machine_proc_bumped().Call)
	P_either = value.NewProc("either", 0, machine_proc_either().Call)
	P_picks = value.NewProc("picks", 0, machine_proc_picks().Call)
	P_nestedShare = value.NewProc("nestedShare", 0, machine_proc_nestedShare().Call)
	P_leftScan = value.NewProc("leftScan", 0, machine_proc_leftScan().Call)
	P_lane_driver_0 = value.NewProc("lane_driver_0", 0, machine_proc_lane_driver_0().Call)
	P_lane_driver_1 = value.NewProc("lane_driver_1", 0, machine_proc_lane_driver_1().Call)
	P_lane_driver_2 = value.NewProc("lane_driver_2", 0, machine_proc_lane_driver_2().Call)
	P_lane_driver_3 = value.NewProc("lane_driver_3", 0, machine_proc_lane_driver_3().Call)
	P_lane_driver_4 = value.NewProc("lane_driver_4", 0, machine_proc_lane_driver_4().Call)
	P_lane_driver_5 = value.NewProc("lane_driver_5", 0, machine_proc_lane_driver_5().Call)
	declare()
}

// declare puts the program in its declared state: its statics and
// globals null, its procedures, records and classes bound.
func declare() {
	for _, v := range statics {
		v.Set(value.NullV)
	}
	Global("bumped").Set(P_bumped)
	Global("either").Set(P_either)
	Global("lane_driver_0").Set(P_lane_driver_0)
	Global("lane_driver_1").Set(P_lane_driver_1)
	Global("lane_driver_2").Set(P_lane_driver_2)
	Global("lane_driver_3").Set(P_lane_driver_3)
	Global("lane_driver_4").Set(P_lane_driver_4)
	Global("lane_driver_5").Set(P_lane_driver_5)
	Global("leftScan").Set(P_leftScan)
	Global("nestedShare").Set(P_nestedShare)
	Global("picks").Set(P_picks)
	Global("sharedCounter").Set(P_sharedCounter)
	Global("zeroed").Set(P_zeroed)
}
