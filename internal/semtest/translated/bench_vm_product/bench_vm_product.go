// Code generated by junicon translate; DO NOT EDIT.

// Package bench_vm_product holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package bench_vm_product

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

// proc_multiplesOf7 is the state machine of multiplesOf7.
type proc_multiplesOf7 struct{ vm.Frame }

func machine_proc_multiplesOf7() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "multiplesOf7", Params: 1, NumAux: 3,
		Slots:  []string{"n", "c", "x_0", "x_1"},
		Consts: []value.V{intLit("0"), intLit("1"), intLit("7")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_multiplesOf7); return f, &f.Frame },
	)
}

func (f *proc_multiplesOf7) Next() (value.V, bool) {
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
				r.Goto(26)
				continue
			}
			r.Const(1)
			r.LoadSlot(0)
			r.Const(1)
			fallthrough
		case 7:
			if !r.ToBy(1, 7) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(2)
			r.Pop()
			r.Const(1)
			r.LoadSlot(0)
			r.Const(1)
			fallthrough
		case 13:
			if !r.ToBy(2, 13) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(3)
			r.Pop()
			r.LoadSlot(2)
			r.LoadSlot(3)
			r.Arith(2)
			r.Const(2)
			r.Arith(4)
			r.Const(0)
			if !r.CmpTest(9) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Const(1)
			r.Aug(4, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 26:
			r.LoadSlot(1)
			return r.Return(28)
		case 28:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_multiplesOf7: bad pc")
		}
	}
}

// proc_lane_driver_0 is the state machine of lane_driver_0.
type proc_lane_driver_0 struct{ vm.Frame }

func machine_proc_lane_driver_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_0", Params: 0, NumAux: 3,
		Slots:  []string{"x_4", "x_5"},
		Consts: []value.V{intLit("1"), intLit("4"), intLit("2"), intLit("3")},
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
			r.Const(2)
			r.Const(3)
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
		Consts:      []value.V{intLit("60")},
		Globals:     []*value.Var{Global("multiplesOf7")},
		GlobalNames: []string{"multiplesOf7"},
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

// P_multiplesOf7 is procedure multiplesOf7.
var P_multiplesOf7 *value.Proc

// P_lane_driver_0 is procedure lane_driver_0.
var P_lane_driver_0 *value.Proc

// P_lane_driver_1 is procedure lane_driver_1.
var P_lane_driver_1 *value.Proc

func init() {
	P_multiplesOf7 = value.NewProc("multiplesOf7", 1, machine_proc_multiplesOf7().Call)
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
	Global("lane_driver_0").Set(P_lane_driver_0)
	Global("lane_driver_1").Set(P_lane_driver_1)
	Global("multiplesOf7").Set(P_multiplesOf7)
}
