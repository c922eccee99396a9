// Code generated by junicon translate; DO NOT EDIT.

// Package example_coordinate holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package example_coordinate

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

// proc_stages is the state machine of stages.
type proc_stages struct{ vm.Frame }

func machine_proc_stages() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "stages", Params: 0, NumAux: 2,
		Slots:  []string{"x_0", "x_1", "x_2"},
		Consts: []value.V{value.String("parse"), value.String("lex"), value.String("ast"), value.String("types"), value.String("flatten"), value.String("emit")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_stages); return f, &f.Frame },
	)
}

func (f *proc_stages) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(23)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.Const(2)
			r.MakeList(3)
			r.BindSlot(0)
			r.Pop()
			r.Const(3)
			r.Const(4)
			r.MakeList(2)
			r.BindSlot(1)
			r.Pop()
			r.Const(5)
			r.MakeList(1)
			r.BindSlot(2)
			r.Pop()
			r.LoadSlot(0)
			r.LoadSlot(1)
			r.LoadSlot(2)
			r.MakeList(3)
			fallthrough
		case 20:
			if !r.Bang(1, 20, false) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
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
			panic("translated proc_stages: bad pc")
		}
	}
}

// proc_runStage_0 is the state machine of runStage|>0.
type proc_runStage_0 struct{ vm.Frame }

func machine_proc_runStage_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "runStage|>0", Params: 1, NumAux: 1,
		Slots:  []string{"j"},
		Consts: []value.V{native("compile")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_runStage_0); return f, &f.Frame },
	)
}

func (f *proc_runStage_0) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadSlot(0)
			if !r.CallNative(1, 0, 0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 2:
			return r.Yield(3)
		case 3:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_runStage_0: bad pc")
		}
	}
}

// proc_runStage is the state machine of runStage.
type proc_runStage struct{ vm.Frame }

func machine_proc_runStage() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "runStage", Params: 1, NumAux: 9,
		Slots:  []string{"jobs", "tasks", "j", "t"},
		Consts: []value.V{builtins["put"]},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_runStage); return f, &f.Frame },
		machine_proc_runStage_0(),
	)
}

func (f *proc_runStage) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.MakeList(0)
			r.StoreSlot(1)
			r.Pop()
			fallthrough
		case 3:
			if r.Mark(0, 3) {
				r.Goto(19)
				continue
			}
			r.LoadSlot(0)
			fallthrough
		case 5:
			if !r.Bang(2, 5, false) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(2)
			r.Pop()
			fallthrough
		case 8:
			if r.Mark(1, 8) {
				r.Goto(18)
				continue
			}
			fallthrough
		case 9:
			if r.Mark(3, 9) {
				r.Goto(17)
				continue
			}
			r.Const(0)
			r.LoadSlot(1)
			r.LoadSlot(2)
			r.Create(1, 0, -1)
			fallthrough
		case 14:
			if !r.Call(2, 4, 14) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(3)
			r.Pop()
			fallthrough
		case 17:
			r.Cut(1)
			fallthrough
		case 18:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 19:
			if r.Mark(5, 19) {
				r.Goto(32)
				continue
			}
			r.LoadSlot(1)
			fallthrough
		case 21:
			if !r.Bang(7, 21, false) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(3)
			r.Pop()
			fallthrough
		case 24:
			if r.Mark(6, 24) {
				r.Goto(31)
				continue
			}
			fallthrough
		case 25:
			if r.Mark(8, 25) {
				r.Goto(30)
				continue
			}
			r.LoadSlot(3)
			if !r.Activate(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 28:
			return r.Yield(29)
		case 29:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 30:
			r.Cut(6)
			fallthrough
		case 31:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 32:
			return r.ReturnFail()
		default:
			panic("translated proc_runStage: bad pc")
		}
	}
}

// proc_workflowRun is the state machine of workflowRun.
type proc_workflowRun struct{ vm.Frame }

func machine_proc_workflowRun() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "workflowRun", Params: 0, NumAux: 5,
		Slots:       []string{"s"},
		Globals:     []*value.Var{Global("stages"), Global("runStage")},
		GlobalNames: []string{"stages", "runStage"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_workflowRun); return f, &f.Frame },
	)
}

func (f *proc_workflowRun) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(14)
				continue
			}
			r.LoadGlobal(0)
			fallthrough
		case 2:
			if !r.Call(0, 2, 2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(0)
			r.Pop()
			fallthrough
		case 5:
			if r.Mark(1, 5) {
				r.Goto(13)
				continue
			}
			fallthrough
		case 6:
			if r.Mark(3, 6) {
				r.Goto(12)
				continue
			}
			r.LoadGlobal(1)
			r.LoadSlot(0)
			fallthrough
		case 9:
			if !r.Call(1, 4, 9) {
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
			panic("translated proc_workflowRun: bad pc")
		}
	}
}

// proc_lane_driver_0 is the state machine of lane_driver_0.
type proc_lane_driver_0 struct{ vm.Frame }

func machine_proc_lane_driver_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_0", Params: 0, NumAux: 2,
		Slots:       []string{},
		Globals:     []*value.Var{Global("workflowRun")},
		GlobalNames: []string{"workflowRun"},
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

// P_stages is procedure stages.
var P_stages *value.Proc

// P_runStage is procedure runStage.
var P_runStage *value.Proc

// P_workflowRun is procedure workflowRun.
var P_workflowRun *value.Proc

// P_lane_driver_0 is procedure lane_driver_0.
var P_lane_driver_0 *value.Proc

func init() {
	P_stages = value.NewProc("stages", 0, machine_proc_stages().Call)
	P_runStage = value.NewProc("runStage", 1, machine_proc_runStage().Call)
	P_workflowRun = value.NewProc("workflowRun", 0, machine_proc_workflowRun().Call)
	P_lane_driver_0 = value.NewProc("lane_driver_0", 0, machine_proc_lane_driver_0().Call)
	declare()
}

// declare puts the program in its declared state: its statics and
// globals null, its procedures, records and classes bound.
func declare() {
	for _, v := range statics {
		v.Set(value.NullV)
	}
	Global("lane_driver_0").Set(P_lane_driver_0)
	Global("runStage").Set(P_runStage)
	Global("stages").Set(P_stages)
	Global("workflowRun").Set(P_workflowRun)
}
