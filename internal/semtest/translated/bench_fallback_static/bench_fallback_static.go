// Code generated by junicon translate; DO NOT EDIT.

// Package bench_fallback_static holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package bench_fallback_static

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

// proc_tick is the state machine of tick.
type proc_tick struct{ vm.Frame }

func machine_proc_tick() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "tick", Params: 0, NumAux: 0,
		Slots:       []string{},
		Consts:      []value.V{intLit("0"), intLit("1")},
		Globals:     []*value.Var{static("static tick.n"), static("static tick.(initial)")},
		GlobalNames: []string{"static tick.n", "static tick.(initial)"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_tick); return f, &f.Frame },
	)
}

func (f *proc_tick) Next() (value.V, bool) {
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
			panic("translated proc_tick: bad pc")
		}
	}
}

// proc_ticks is the state machine of ticks.
type proc_ticks struct{ vm.Frame }

func machine_proc_ticks() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "ticks", Params: 1, NumAux: 5,
		Slots:       []string{"k"},
		Consts:      []value.V{intLit("1")},
		Globals:     []*value.Var{Global("tick")},
		GlobalNames: []string{"tick"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_ticks); return f, &f.Frame },
	)
}

func (f *proc_ticks) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(14)
				continue
			}
			r.Const(0)
			r.LoadSlot(0)
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
				r.Goto(13)
				continue
			}
			fallthrough
		case 7:
			if r.Mark(3, 7) {
				r.Goto(12)
				continue
			}
			r.LoadGlobal(0)
			fallthrough
		case 9:
			if !r.Call(0, 4, 9) {
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
			r.Cut(1)
			fallthrough
		case 13:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 14:
			return r.ReturnFail()
		default:
			panic("translated proc_ticks: bad pc")
		}
	}
}

// proc_tickMany is the state machine of tickMany.
type proc_tickMany struct{ vm.Frame }

func machine_proc_tickMany() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "tickMany", Params: 1, NumAux: 5,
		Slots:       []string{"k", "last"},
		Consts:      []value.V{intLit("1")},
		Globals:     []*value.Var{Global("tick")},
		GlobalNames: []string{"tick"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_tickMany); return f, &f.Frame },
	)
}

func (f *proc_tickMany) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(15)
				continue
			}
			r.Const(0)
			r.LoadSlot(0)
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
				r.Goto(14)
				continue
			}
			fallthrough
		case 7:
			if r.Mark(3, 7) {
				r.Goto(13)
				continue
			}
			r.LoadGlobal(0)
			fallthrough
		case 9:
			if !r.Call(0, 4, 9) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(1)
			r.Cut(3)
			r.Pop()
			fallthrough
		case 13:
			r.Cut(1)
			fallthrough
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
			panic("translated proc_tickMany: bad pc")
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
		Globals:     []*value.Var{Global("ticks")},
		GlobalNames: []string{"ticks"},
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
		Consts:      []value.V{intLit("1000")},
		Globals:     []*value.Var{Global("tickMany")},
		GlobalNames: []string{"tickMany"},
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

// P_tick is procedure tick.
var P_tick *value.Proc

// P_ticks is procedure ticks.
var P_ticks *value.Proc

// P_tickMany is procedure tickMany.
var P_tickMany *value.Proc

// P_lane_driver_0 is procedure lane_driver_0.
var P_lane_driver_0 *value.Proc

// P_lane_driver_1 is procedure lane_driver_1.
var P_lane_driver_1 *value.Proc

func init() {
	P_tick = value.NewProc("tick", 0, machine_proc_tick().Call)
	P_ticks = value.NewProc("ticks", 1, machine_proc_ticks().Call)
	P_tickMany = value.NewProc("tickMany", 1, machine_proc_tickMany().Call)
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
	Global("tick").Set(P_tick)
	Global("tickMany").Set(P_tickMany)
	Global("ticks").Set(P_ticks)
}
