// Code generated by junicon translate; DO NOT EDIT.

// Package bench_vm_everysum holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package bench_vm_everysum

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

// proc_sumTo is the state machine of sumTo.
type proc_sumTo struct{ vm.Frame }

func machine_proc_sumTo() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "sumTo", Params: 1, NumAux: 2,
		Slots:  []string{"n", "s"},
		Consts: []value.V{intLit("0"), intLit("1")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_sumTo); return f, &f.Frame },
	)
}

func (f *proc_sumTo) Next() (value.V, bool) {
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
				r.Goto(10)
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
			r.Aug(4, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 10:
			r.LoadSlot(1)
			return r.Return(12)
		case 12:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_sumTo: bad pc")
		}
	}
}

// proc_sumEvens is the state machine of sumEvens.
type proc_sumEvens struct{ vm.Frame }

func machine_proc_sumEvens() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "sumEvens", Params: 1, NumAux: 2,
		Slots:  []string{"n", "s"},
		Consts: []value.V{intLit("0"), intLit("2")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_sumEvens); return f, &f.Frame },
	)
}

func (f *proc_sumEvens) Next() (value.V, bool) {
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
				r.Goto(10)
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
			r.Aug(4, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 10:
			r.LoadSlot(1)
			return r.Return(12)
		case 12:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_sumEvens: bad pc")
		}
	}
}

// proc_lane_driver_0 is the state machine of lane_driver_0.
type proc_lane_driver_0 struct{ vm.Frame }

func machine_proc_lane_driver_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_0", Params: 0, NumAux: 2,
		Slots:       []string{},
		Consts:      []value.V{intLit("4000")},
		Globals:     []*value.Var{Global("sumTo")},
		GlobalNames: []string{"sumTo"},
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
		Consts:      []value.V{intLit("4000")},
		Globals:     []*value.Var{Global("sumEvens")},
		GlobalNames: []string{"sumEvens"},
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

// P_sumTo is procedure sumTo.
var P_sumTo *value.Proc

// P_sumEvens is procedure sumEvens.
var P_sumEvens *value.Proc

// P_lane_driver_0 is procedure lane_driver_0.
var P_lane_driver_0 *value.Proc

// P_lane_driver_1 is procedure lane_driver_1.
var P_lane_driver_1 *value.Proc

func init() {
	P_sumTo = value.NewProc("sumTo", 1, machine_proc_sumTo().Call)
	P_sumEvens = value.NewProc("sumEvens", 1, machine_proc_sumEvens().Call)
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
	Global("sumEvens").Set(P_sumEvens)
	Global("sumTo").Set(P_sumTo)
}
