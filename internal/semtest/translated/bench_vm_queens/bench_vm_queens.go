// Code generated by junicon translate; DO NOT EDIT.

// Package bench_vm_queens holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package bench_vm_queens

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

// proc_place is the state machine of place.
type proc_place struct{ vm.Frame }

func machine_proc_place() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "place", Params: 2, NumAux: 18,
		Slots:       []string{"c", "n", "r", "x_3/x_6/x_9/x_11/x_12/x_13/x_14/x_17", "x_16/x_19"},
		Consts:      []value.V{builtins["copy"], intLit("1")},
		Globals:     []*value.Var{Global("q"), Global("rows"), Global("up"), Global("down"), Global("place")},
		GlobalNames: []string{"q", "rows", "up", "down", "place"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_place); return f, &f.Frame },
	)
}

func (f *proc_place) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(13)
				continue
			}
			r.LoadSlot(0)
			r.LoadSlot(1)
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
				r.Goto(12)
				continue
			}
			r.Const(0)
			r.LoadGlobal(0)
			fallthrough
		case 8:
			if !r.Call(1, 2, 8) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(1)
			return r.Return(11)
		case 11:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 12:
			return r.ReturnFail()
		case 13:
			if r.Mark(3, 13) {
				r.Goto(163)
				continue
			}
			r.Const(1)
			r.LoadSlot(1)
			r.Const(1)
			fallthrough
		case 17:
			if !r.ToBy(5, 17) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(2)
			r.Pop()
			fallthrough
		case 20:
			if r.Mark(4, 20) {
				r.Goto(162)
				continue
			}
			fallthrough
		case 21:
			if r.Mark(6, 21) {
				r.Goto(161)
				continue
			}
			r.LoadGlobal(1)
			r.LoadSlot(2)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			if !r.NullTest() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(6)
			r.Pop()
			fallthrough
		case 28:
			if r.Mark(7, 28) {
				r.Goto(161)
				continue
			}
			r.LoadSlot(1)
			r.LoadSlot(2)
			r.Arith(0)
			r.LoadSlot(0)
			r.Arith(1)
			r.BindSlot(3)
			r.Pop()
			r.LoadGlobal(2)
			r.LoadSlot(3)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			if !r.NullTest() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(7)
			r.Pop()
			fallthrough
		case 42:
			if r.Mark(8, 42) {
				r.Goto(161)
				continue
			}
			r.LoadSlot(2)
			r.LoadSlot(0)
			r.Arith(0)
			r.Const(1)
			r.Arith(1)
			r.BindSlot(3)
			r.Pop()
			r.LoadGlobal(3)
			r.LoadSlot(3)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			if !r.NullTest() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(8)
			r.Pop()
			fallthrough
		case 56:
			if r.Mark(9, 56) {
				r.Goto(64)
				continue
			}
			r.LoadGlobal(1)
			r.LoadSlot(2)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Const(1)
			r.StoreVar()
			r.Cut(9)
			r.Pop()
			fallthrough
		case 64:
			if r.Mark(10, 64) {
				r.Goto(79)
				continue
			}
			r.LoadSlot(1)
			r.LoadSlot(2)
			r.Arith(0)
			r.LoadSlot(0)
			r.Arith(1)
			r.BindSlot(3)
			r.Pop()
			r.LoadGlobal(2)
			r.LoadSlot(3)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Const(1)
			r.StoreVar()
			r.Cut(10)
			r.Pop()
			fallthrough
		case 79:
			if r.Mark(11, 79) {
				r.Goto(94)
				continue
			}
			r.LoadSlot(2)
			r.LoadSlot(0)
			r.Arith(0)
			r.Const(1)
			r.Arith(1)
			r.BindSlot(3)
			r.Pop()
			r.LoadGlobal(3)
			r.LoadSlot(3)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Const(1)
			r.StoreVar()
			r.Cut(11)
			r.Pop()
			fallthrough
		case 94:
			if r.Mark(12, 94) {
				r.Goto(102)
				continue
			}
			r.LoadGlobal(0)
			r.LoadSlot(0)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.LoadSlot(2)
			r.StoreVar()
			r.Cut(12)
			r.Pop()
			fallthrough
		case 102:
			if r.Mark(13, 102) {
				r.Goto(114)
				continue
			}
			r.LoadSlot(0)
			r.Const(1)
			r.Arith(0)
			r.BindSlot(3)
			r.Pop()
			r.LoadGlobal(4)
			r.LoadSlot(3)
			r.LoadSlot(1)
			fallthrough
		case 111:
			if !r.Call(2, 14, 111) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 112:
			return r.Yield(113)
		case 113:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 114:
			if r.Mark(15, 114) {
				r.Goto(125)
				continue
			}
			r.Null()
			r.BindSlot(3)
			r.Pop()
			r.LoadGlobal(1)
			r.LoadSlot(2)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.LoadSlot(3)
			r.StoreVar()
			r.Cut(15)
			r.Pop()
			fallthrough
		case 125:
			if r.Mark(16, 125) {
				r.Goto(143)
				continue
			}
			r.Null()
			r.BindSlot(3)
			r.Pop()
			r.LoadSlot(1)
			r.LoadSlot(2)
			r.Arith(0)
			r.LoadSlot(0)
			r.Arith(1)
			r.BindSlot(4)
			r.Pop()
			r.LoadGlobal(2)
			r.LoadSlot(4)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.LoadSlot(3)
			r.StoreVar()
			r.Cut(16)
			r.Pop()
			fallthrough
		case 143:
			if r.Mark(17, 143) {
				r.Goto(161)
				continue
			}
			r.Null()
			r.BindSlot(3)
			r.Pop()
			r.LoadSlot(2)
			r.LoadSlot(0)
			r.Arith(0)
			r.Const(1)
			r.Arith(1)
			r.BindSlot(4)
			r.Pop()
			r.LoadGlobal(3)
			r.LoadSlot(4)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.LoadSlot(3)
			r.StoreVar()
			r.Cut(17)
			r.Pop()
			fallthrough
		case 161:
			r.Cut(4)
			fallthrough
		case 162:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 163:
			return r.ReturnFail()
		default:
			panic("translated proc_place: bad pc")
		}
	}
}

// proc_queens is the state machine of queens.
type proc_queens struct{ vm.Frame }

func machine_proc_queens() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "queens", Params: 1, NumAux: 10,
		Slots:       []string{"n", "x_22/x_25"},
		Consts:      []value.V{builtins["list"], intLit("2"), intLit("1")},
		Globals:     []*value.Var{Global("rows"), Global("up"), Global("down"), Global("q"), Global("place")},
		GlobalNames: []string{"rows", "up", "down", "q", "place"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_queens); return f, &f.Frame },
	)
}

func (f *proc_queens) Next() (value.V, bool) {
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
			r.LoadSlot(0)
			fallthrough
		case 3:
			if !r.Call(1, 1, 3) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreGlobal(0)
			r.Cut(0)
			r.Pop()
			fallthrough
		case 7:
			if r.Mark(2, 7) {
				r.Goto(21)
				continue
			}
			r.Const(1)
			r.LoadSlot(0)
			r.Arith(2)
			r.Const(2)
			r.Arith(1)
			r.BindSlot(1)
			r.Pop()
			r.Const(0)
			r.LoadSlot(1)
			fallthrough
		case 17:
			if !r.Call(1, 3, 17) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreGlobal(1)
			r.Cut(2)
			r.Pop()
			fallthrough
		case 21:
			if r.Mark(4, 21) {
				r.Goto(35)
				continue
			}
			r.Const(1)
			r.LoadSlot(0)
			r.Arith(2)
			r.Const(2)
			r.Arith(1)
			r.BindSlot(1)
			r.Pop()
			r.Const(0)
			r.LoadSlot(1)
			fallthrough
		case 31:
			if !r.Call(1, 5, 31) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreGlobal(2)
			r.Cut(4)
			r.Pop()
			fallthrough
		case 35:
			if r.Mark(6, 35) {
				r.Goto(42)
				continue
			}
			r.Const(0)
			r.LoadSlot(0)
			fallthrough
		case 38:
			if !r.Call(1, 7, 38) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreGlobal(3)
			r.Cut(6)
			r.Pop()
			fallthrough
		case 42:
			if r.Mark(8, 42) {
				r.Goto(49)
				continue
			}
			r.LoadGlobal(4)
			r.Const(2)
			r.LoadSlot(0)
			fallthrough
		case 46:
			if !r.Call(2, 9, 46) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 47:
			return r.Yield(48)
		case 48:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 49:
			return r.ReturnFail()
		default:
			panic("translated proc_queens: bad pc")
		}
	}
}

// proc_countQueens is the state machine of countQueens.
type proc_countQueens struct{ vm.Frame }

func machine_proc_countQueens() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "countQueens", Params: 1, NumAux: 2,
		Slots:       []string{"n", "c"},
		Consts:      []value.V{intLit("0"), intLit("1")},
		Globals:     []*value.Var{Global("queens")},
		GlobalNames: []string{"queens"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_countQueens); return f, &f.Frame },
	)
}

func (f *proc_countQueens) Next() (value.V, bool) {
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
				r.Goto(11)
				continue
			}
			r.LoadGlobal(0)
			r.LoadSlot(0)
			fallthrough
		case 6:
			if !r.Call(1, 1, 6) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Pop()
			r.Const(1)
			r.Aug(4, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 11:
			r.LoadSlot(1)
			return r.Return(13)
		case 13:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_countQueens: bad pc")
		}
	}
}

// proc_lane_driver_0 is the state machine of lane_driver_0.
type proc_lane_driver_0 struct{ vm.Frame }

func machine_proc_lane_driver_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_0", Params: 0, NumAux: 2,
		Slots:       []string{},
		Consts:      []value.V{intLit("5")},
		Globals:     []*value.Var{Global("queens")},
		GlobalNames: []string{"queens"},
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
				r.Goto(6)
				continue
			}
			r.LoadGlobal(0)
			r.Const(0)
			fallthrough
		case 3:
			if !r.Call(1, 1, 3) {
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
		Consts:      []value.V{intLit("5")},
		Globals:     []*value.Var{Global("countQueens")},
		GlobalNames: []string{"countQueens"},
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
			r.LoadGlobal(0)
			r.Const(0)
			fallthrough
		case 3:
			if !r.Call(1, 1, 3) {
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

// P_place is procedure place.
var P_place *value.Proc

// P_queens is procedure queens.
var P_queens *value.Proc

// P_countQueens is procedure countQueens.
var P_countQueens *value.Proc

// P_lane_driver_0 is procedure lane_driver_0.
var P_lane_driver_0 *value.Proc

// P_lane_driver_1 is procedure lane_driver_1.
var P_lane_driver_1 *value.Proc

func init() {
	P_place = value.NewProc("place", 2, machine_proc_place().Call)
	P_queens = value.NewProc("queens", 1, machine_proc_queens().Call)
	P_countQueens = value.NewProc("countQueens", 1, machine_proc_countQueens().Call)
	P_lane_driver_0 = value.NewProc("lane_driver_0", 0, machine_proc_lane_driver_0().Call)
	P_lane_driver_1 = value.NewProc("lane_driver_1", 0, machine_proc_lane_driver_1().Call)
	declare()
}

// declare puts the program in its declared state: its statics and
// globals null, its procedures, records and classes bound.
func declare() {
	for _, v := range statics {
		v.Set(value.NullV)
	}
	Global("countQueens").Set(P_countQueens)
	Global("down").Set(value.NullV)
	Global("lane_driver_0").Set(P_lane_driver_0)
	Global("lane_driver_1").Set(P_lane_driver_1)
	Global("place").Set(P_place)
	Global("q").Set(value.NullV)
	Global("queens").Set(P_queens)
	Global("rows").Set(value.NullV)
	Global("up").Set(value.NullV)
}
