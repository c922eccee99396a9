// Code generated by junicon translate; DO NOT EDIT.

// Package bench_fallback_pipes holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package bench_fallback_pipes

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

// proc_piped_0 is the state machine of piped|>0.
type proc_piped_0 struct{ vm.Frame }

func machine_proc_piped_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "piped|>0", Params: 1, NumAux: 1,
		Slots:  []string{"limit"},
		Consts: []value.V{intLit("1")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_piped_0); return f, &f.Frame },
	)
}

func (f *proc_piped_0) Next() (value.V, bool) {
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
			panic("translated proc_piped_0: bad pc")
		}
	}
}

// proc_piped is the state machine of piped.
type proc_piped struct{ vm.Frame }

func machine_proc_piped() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "piped", Params: 1, NumAux: 2,
		Slots: []string{"limit", "p"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_piped); return f, &f.Frame },
		machine_proc_piped_0(),
	)
}

func (f *proc_piped) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadSlot(0)
			r.Create(1, 0, -1)
			r.StoreSlot(1)
			r.Pop()
			fallthrough
		case 4:
			if r.Mark(0, 4) {
				r.Goto(9)
				continue
			}
			r.LoadSlot(1)
			fallthrough
		case 6:
			if !r.Bang(1, 6, false) {
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
		case 9:
			return r.ReturnFail()
		default:
			panic("translated proc_piped: bad pc")
		}
	}
}

// proc_sumPiped_0 is the state machine of sumPiped|>0.
type proc_sumPiped_0 struct{ vm.Frame }

func machine_proc_sumPiped_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "sumPiped|>0", Params: 1, NumAux: 1,
		Slots:  []string{"limit"},
		Consts: []value.V{intLit("1")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_sumPiped_0); return f, &f.Frame },
	)
}

func (f *proc_sumPiped_0) Next() (value.V, bool) {
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
			panic("translated proc_sumPiped_0: bad pc")
		}
	}
}

// proc_sumPiped is the state machine of sumPiped.
type proc_sumPiped struct{ vm.Frame }

func machine_proc_sumPiped() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "sumPiped", Params: 1, NumAux: 2,
		Slots:  []string{"limit", "p", "s"},
		Consts: []value.V{intLit("0")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_sumPiped); return f, &f.Frame },
		machine_proc_sumPiped_0(),
	)
}

func (f *proc_sumPiped) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadSlot(0)
			r.Create(1, 0, -1)
			r.StoreSlot(1)
			r.Pop()
			r.Const(0)
			r.StoreSlot(2)
			r.Pop()
			fallthrough
		case 7:
			if r.Mark(0, 7) {
				r.Goto(12)
				continue
			}
			r.LoadSlot(1)
			fallthrough
		case 9:
			if !r.Bang(1, 9, false) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Aug(8, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 12:
			r.LoadSlot(2)
			return r.Return(14)
		case 14:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_sumPiped: bad pc")
		}
	}
}

// proc_lane_driver_0 is the state machine of lane_driver_0.
type proc_lane_driver_0 struct{ vm.Frame }

func machine_proc_lane_driver_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_0", Params: 0, NumAux: 2,
		Slots:       []string{},
		Consts:      []value.V{intLit("8")},
		Globals:     []*value.Var{Global("piped")},
		GlobalNames: []string{"piped"},
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
		Consts:      []value.V{intLit("3000")},
		Globals:     []*value.Var{Global("sumPiped")},
		GlobalNames: []string{"sumPiped"},
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

// P_piped is procedure piped.
var P_piped *value.Proc

// P_sumPiped is procedure sumPiped.
var P_sumPiped *value.Proc

// P_lane_driver_0 is procedure lane_driver_0.
var P_lane_driver_0 *value.Proc

// P_lane_driver_1 is procedure lane_driver_1.
var P_lane_driver_1 *value.Proc

func init() {
	P_piped = value.NewProc("piped", 1, machine_proc_piped().Call)
	P_sumPiped = value.NewProc("sumPiped", 1, machine_proc_sumPiped().Call)
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
	Global("piped").Set(P_piped)
	Global("sumPiped").Set(P_sumPiped)
}
