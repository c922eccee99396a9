// Code generated by junicon translate; DO NOT EDIT.

// Package bench_fallback_coexpr holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package bench_fallback_coexpr

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

// proc_evens_0 is the state machine of evens|<>0.
type proc_evens_0 struct{ vm.Frame }

func machine_proc_evens_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "evens|<>0", Params: 1, NumAux: 1,
		Slots:  []string{"limit"},
		Consts: []value.V{intLit("2")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_evens_0); return f, &f.Frame },
	)
}

func (f *proc_evens_0) Next() (value.V, bool) {
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
			fallthrough
		case 4:
			return r.Yield(5)
		case 5:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_evens_0: bad pc")
		}
	}
}

// proc_evens is the state machine of evens.
type proc_evens struct{ vm.Frame }

func machine_proc_evens() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "evens", Params: 1, NumAux: 3,
		Slots: []string{"limit", "c", "x"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_evens); return f, &f.Frame },
		machine_proc_evens_0(),
	)
}

func (f *proc_evens) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadSlot(0)
			r.Create(1, 0, 0)
			r.StoreSlot(1)
			r.Pop()
			fallthrough
		case 4:
			if r.Mark(0, 4) {
				r.Goto(17)
				continue
			}
			r.LoadSlot(1)
			if !r.Activate(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(2)
			r.Cut(0)
			r.Pop()
			fallthrough
		case 10:
			if r.Mark(1, 10) {
				r.Goto(16)
				continue
			}
			fallthrough
		case 11:
			if r.Mark(2, 11) {
				r.Goto(15)
				continue
			}
			r.LoadSlot(2)
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
			r.Goto(4)
			continue
		case 17:
			return r.ReturnFail()
		default:
			panic("translated proc_evens: bad pc")
		}
	}
}

// proc_sumStepped_0 is the state machine of sumStepped|<>0.
type proc_sumStepped_0 struct{ vm.Frame }

func machine_proc_sumStepped_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "sumStepped|<>0", Params: 1, NumAux: 1,
		Slots:  []string{"limit"},
		Consts: []value.V{intLit("1")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_sumStepped_0); return f, &f.Frame },
	)
}

func (f *proc_sumStepped_0) Next() (value.V, bool) {
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
			fallthrough
		case 4:
			return r.Yield(5)
		case 5:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_sumStepped_0: bad pc")
		}
	}
}

// proc_sumStepped is the state machine of sumStepped.
type proc_sumStepped struct{ vm.Frame }

func machine_proc_sumStepped() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "sumStepped", Params: 1, NumAux: 1,
		Slots:  []string{"limit", "c", "s", "x"},
		Consts: []value.V{intLit("0")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_sumStepped); return f, &f.Frame },
		machine_proc_sumStepped_0(),
	)
}

func (f *proc_sumStepped) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadSlot(0)
			r.Create(1, 0, 0)
			r.StoreSlot(1)
			r.Pop()
			r.Const(0)
			r.StoreSlot(2)
			r.Pop()
			fallthrough
		case 7:
			if r.Mark(0, 7) {
				r.Goto(17)
				continue
			}
			r.LoadSlot(1)
			if !r.Activate(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(3)
			r.Cut(0)
			r.Pop()
			r.LoadSlot(3)
			r.Aug(8, 0)
			r.Pop()
			r.Goto(7)
			continue
		case 17:
			r.LoadSlot(2)
			return r.Return(19)
		case 19:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_sumStepped: bad pc")
		}
	}
}

// proc_refreshed_0 is the state machine of refreshed|<>0.
type proc_refreshed_0 struct{ vm.Frame }

func machine_proc_refreshed_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "refreshed|<>0", Params: 1, NumAux: 1,
		Slots:  []string{"limit"},
		Consts: []value.V{intLit("1")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_refreshed_0); return f, &f.Frame },
	)
}

func (f *proc_refreshed_0) Next() (value.V, bool) {
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
			fallthrough
		case 4:
			return r.Yield(5)
		case 5:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_refreshed_0: bad pc")
		}
	}
}

// proc_refreshed is the state machine of refreshed.
type proc_refreshed struct{ vm.Frame }

func machine_proc_refreshed() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "refreshed", Params: 1, NumAux: 3,
		Slots: []string{"limit", "c"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_refreshed); return f, &f.Frame },
		machine_proc_refreshed_0(),
	)
}

func (f *proc_refreshed) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadSlot(0)
			r.Create(1, 0, 0)
			r.StoreSlot(1)
			r.Pop()
			fallthrough
		case 4:
			if r.Mark(0, 4) {
				r.Goto(9)
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
		case 9:
			r.LoadSlot(1)
			r.Unary(4)
			r.StoreSlot(1)
			r.Pop()
			fallthrough
		case 13:
			if r.Mark(1, 13) {
				r.Goto(18)
				continue
			}
			r.LoadSlot(1)
			fallthrough
		case 15:
			if !r.Bang(2, 15, false) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
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
			panic("translated proc_refreshed: bad pc")
		}
	}
}

// proc_lane_driver_0 is the state machine of lane_driver_0.
type proc_lane_driver_0 struct{ vm.Frame }

func machine_proc_lane_driver_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_0", Params: 0, NumAux: 2,
		Slots:       []string{},
		Consts:      []value.V{intLit("12")},
		Globals:     []*value.Var{Global("evens")},
		GlobalNames: []string{"evens"},
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
		Globals:     []*value.Var{Global("sumStepped")},
		GlobalNames: []string{"sumStepped"},
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
		Consts:      []value.V{intLit("3")},
		Globals:     []*value.Var{Global("refreshed")},
		GlobalNames: []string{"refreshed"},
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

// P_evens is procedure evens.
var P_evens *value.Proc

// P_sumStepped is procedure sumStepped.
var P_sumStepped *value.Proc

// P_refreshed is procedure refreshed.
var P_refreshed *value.Proc

// P_lane_driver_0 is procedure lane_driver_0.
var P_lane_driver_0 *value.Proc

// P_lane_driver_1 is procedure lane_driver_1.
var P_lane_driver_1 *value.Proc

// P_lane_driver_2 is procedure lane_driver_2.
var P_lane_driver_2 *value.Proc

func init() {
	P_evens = value.NewProc("evens", 1, machine_proc_evens().Call)
	P_sumStepped = value.NewProc("sumStepped", 1, machine_proc_sumStepped().Call)
	P_refreshed = value.NewProc("refreshed", 1, machine_proc_refreshed().Call)
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
	Global("evens").Set(P_evens)
	Global("lane_driver_0").Set(P_lane_driver_0)
	Global("lane_driver_1").Set(P_lane_driver_1)
	Global("lane_driver_2").Set(P_lane_driver_2)
	Global("refreshed").Set(P_refreshed)
	Global("sumStepped").Set(P_sumStepped)
}
