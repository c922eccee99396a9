// Code generated by junicon translate; DO NOT EDIT.

// Package bench_fallback_revassign holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package bench_fallback_revassign

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

// proc_firstAbove is the state machine of firstAbove.
type proc_firstAbove struct{ vm.Frame }

func machine_proc_firstAbove() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "firstAbove", Params: 1, NumAux: 3,
		Slots:  []string{"k", "x"},
		Consts: []value.V{intLit("0"), intLit("1"), intLit("10")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_firstAbove); return f, &f.Frame },
	)
}

func (f *proc_firstAbove) Next() (value.V, bool) {
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
				r.Goto(15)
				continue
			}
			r.Const(1)
			r.Const(2)
			r.Const(1)
			fallthrough
		case 7:
			if !r.ToBy(1, 7) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 8:
			if !r.RevAssign(4, 2, 8) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.LoadSlot(0)
			if !r.CmpTest(2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(0)
			r.LoadSlot(1)
			return r.Return(14)
		case 14:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 15:
			r.LoadSlot(1)
			return r.Return(17)
		case 17:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_firstAbove: bad pc")
		}
	}
}

// proc_keptOnFailure is the state machine of keptOnFailure.
type proc_keptOnFailure struct{ vm.Frame }

func machine_proc_keptOnFailure() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "keptOnFailure", Params: 1, NumAux: 3,
		Slots:  []string{"k", "x"},
		Consts: []value.V{intLit("1"), intLit("3"), intLit("9")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_keptOnFailure); return f, &f.Frame },
	)
}

func (f *proc_keptOnFailure) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadSlot(0)
			r.StoreSlot(1)
			r.Pop()
			fallthrough
		case 3:
			if r.Mark(0, 3) {
				r.Goto(12)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.Const(0)
			fallthrough
		case 7:
			if !r.ToBy(1, 7) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 8:
			if !r.RevAssign(4, 2, 8) {
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
			r.Cut(0)
			fallthrough
		case 12:
			r.LoadSlot(1)
			return r.Return(14)
		case 14:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_keptOnFailure: bad pc")
		}
	}
}

// proc_countRestores is the state machine of countRestores.
type proc_countRestores struct{ vm.Frame }

func machine_proc_countRestores() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "countRestores", Params: 1, NumAux: 7,
		Slots:  []string{"n", "x", "c", "i", "x_5/x_7", "x_8"},
		Consts: []value.V{intLit("0"), intLit("1")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_countRestores); return f, &f.Frame },
	)
}

func (f *proc_countRestores) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.Const(0)
			r.StoreSlot(1)
			r.Pop()
			r.Const(0)
			r.StoreSlot(2)
			r.Pop()
			fallthrough
		case 6:
			if r.Mark(0, 6) {
				r.Goto(46)
				continue
			}
			r.Const(1)
			r.LoadSlot(0)
			r.Const(1)
			fallthrough
		case 10:
			if !r.ToBy(2, 10) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(3)
			r.Pop()
			fallthrough
		case 13:
			if r.Mark(1, 13) {
				r.Goto(45)
				continue
			}
			fallthrough
		case 14:
			if r.Mark(3, 14) {
				r.Goto(36)
				continue
			}
			r.LoadSlot(3)
			r.Const(1)
			r.Arith(0)
			r.BindSlot(4)
			r.Pop()
			r.LoadSlot(3)
			r.LoadSlot(4)
			r.Const(1)
			fallthrough
		case 23:
			if !r.ToBy(4, 23) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 24:
			if !r.RevAssign(4, 5, 24) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(4)
			r.Pop()
			r.LoadSlot(0)
			r.Const(1)
			r.Arith(0)
			r.BindSlot(5)
			r.Pop()
			r.LoadSlot(4)
			r.LoadSlot(5)
			if !r.CmpTest(2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(3)
			fallthrough
		case 36:
			if r.Mark(6, 36) {
				r.Goto(44)
				continue
			}
			r.LoadSlot(1)
			r.Const(1)
			if !r.CmpTest(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(6)
			r.Const(1)
			r.Aug(8, 0)
			r.Pop()
			fallthrough
		case 44:
			r.Cut(1)
			fallthrough
		case 45:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 46:
			r.LoadSlot(2)
			return r.Return(48)
		case 48:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_countRestores: bad pc")
		}
	}
}

// proc_lane_driver_0 is the state machine of lane_driver_0.
type proc_lane_driver_0 struct{ vm.Frame }

func machine_proc_lane_driver_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_0", Params: 0, NumAux: 2,
		Slots:       []string{},
		Consts:      []value.V{intLit("7")},
		Globals:     []*value.Var{Global("firstAbove")},
		GlobalNames: []string{"firstAbove"},
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
		Globals:     []*value.Var{Global("keptOnFailure")},
		GlobalNames: []string{"keptOnFailure"},
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

// proc_lane_driver_2 is the state machine of lane_driver_2.
type proc_lane_driver_2 struct{ vm.Frame }

func machine_proc_lane_driver_2() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_2", Params: 0, NumAux: 2,
		Slots:       []string{},
		Consts:      []value.V{intLit("1000")},
		Globals:     []*value.Var{Global("countRestores")},
		GlobalNames: []string{"countRestores"},
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
			panic("translated proc_lane_driver_2: bad pc")
		}
	}
}

// P_firstAbove is procedure firstAbove.
var P_firstAbove *value.Proc

// P_keptOnFailure is procedure keptOnFailure.
var P_keptOnFailure *value.Proc

// P_countRestores is procedure countRestores.
var P_countRestores *value.Proc

// P_lane_driver_0 is procedure lane_driver_0.
var P_lane_driver_0 *value.Proc

// P_lane_driver_1 is procedure lane_driver_1.
var P_lane_driver_1 *value.Proc

// P_lane_driver_2 is procedure lane_driver_2.
var P_lane_driver_2 *value.Proc

func init() {
	P_firstAbove = value.NewProc("firstAbove", 1, machine_proc_firstAbove().Call)
	P_keptOnFailure = value.NewProc("keptOnFailure", 1, machine_proc_keptOnFailure().Call)
	P_countRestores = value.NewProc("countRestores", 1, machine_proc_countRestores().Call)
	P_lane_driver_0 = value.NewProc("lane_driver_0", 0, machine_proc_lane_driver_0().Call)
	P_lane_driver_1 = value.NewProc("lane_driver_1", 0, machine_proc_lane_driver_1().Call)
	P_lane_driver_2 = value.NewProc("lane_driver_2", 0, machine_proc_lane_driver_2().Call)
	declare()
}

// declare puts the program in its declared state: its statics and
// globals null, its procedures, records and classes bound.
func declare() {
	for _, v := range statics {
		v.Set(value.NullV)
	}
	Global("countRestores").Set(P_countRestores)
	Global("firstAbove").Set(P_firstAbove)
	Global("keptOnFailure").Set(P_keptOnFailure)
	Global("lane_driver_0").Set(P_lane_driver_0)
	Global("lane_driver_1").Set(P_lane_driver_1)
	Global("lane_driver_2").Set(P_lane_driver_2)
}
