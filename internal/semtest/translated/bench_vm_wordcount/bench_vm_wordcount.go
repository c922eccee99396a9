// Code generated by junicon translate; DO NOT EDIT.

// Package bench_vm_wordcount holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package bench_vm_wordcount

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

// proc_wcTotal is the state machine of wcTotal.
type proc_wcTotal struct{ vm.Frame }

func machine_proc_wcTotal() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "wcTotal", Params: 0, NumAux: 5,
		Slots:  []string{"t", "readLines", "x_0", "splitWords"},
		Consts: []value.V{value.Real(0), native("wordToNumber"), native("hashNumber")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_wcTotal); return f, &f.Frame },
	)
}

func (f *proc_wcTotal) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.Const(0)
			r.StoreSlot(0)
			r.Pop()
			fallthrough
		case 3:
			if r.Mark(0, 3) {
				r.Goto(15)
				continue
			}
			r.LoadSlot(1)
			fallthrough
		case 5:
			if !r.Call(0, 1, 5) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(2)
			r.Pop()
			r.LoadSlot(3)
			r.LoadSlot(2)
			fallthrough
		case 10:
			if !r.Call(1, 2, 10) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			if !r.CallNative(1, 3, 1) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			if !r.CallNative(1, 4, 2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Aug(0, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 15:
			r.LoadSlot(0)
			return r.Return(17)
		case 17:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_wcTotal: bad pc")
		}
	}
}

// proc_wcWords is the state machine of wcWords.
type proc_wcWords struct{ vm.Frame }

func machine_proc_wcWords() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "wcWords", Params: 0, NumAux: 3,
		Slots:  []string{"c", "readLines", "x_4", "splitWords"},
		Consts: []value.V{intLit("0"), intLit("1")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_wcWords); return f, &f.Frame },
	)
}

func (f *proc_wcWords) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.Const(0)
			r.StoreSlot(0)
			r.Pop()
			fallthrough
		case 3:
			if r.Mark(0, 3) {
				r.Goto(15)
				continue
			}
			r.LoadSlot(1)
			fallthrough
		case 5:
			if !r.Call(0, 1, 5) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(2)
			r.Pop()
			r.LoadSlot(3)
			r.LoadSlot(2)
			fallthrough
		case 10:
			if !r.Call(1, 2, 10) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Pop()
			r.Const(1)
			r.Aug(0, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 15:
			r.LoadSlot(0)
			return r.Return(17)
		case 17:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_wcWords: bad pc")
		}
	}
}

// proc_lane_driver_0 is the state machine of lane_driver_0.
type proc_lane_driver_0 struct{ vm.Frame }

func machine_proc_lane_driver_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_0", Params: 0, NumAux: 2,
		Slots:       []string{},
		Globals:     []*value.Var{Global("wcTotal")},
		GlobalNames: []string{"wcTotal"},
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
		Name: "lane_driver_1", Params: 0, NumAux: 2,
		Slots:       []string{},
		Globals:     []*value.Var{Global("wcWords")},
		GlobalNames: []string{"wcWords"},
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
			panic("translated proc_lane_driver_1: bad pc")
		}
	}
}

// P_wcTotal is procedure wcTotal.
var P_wcTotal *value.Proc

// P_wcWords is procedure wcWords.
var P_wcWords *value.Proc

// P_lane_driver_0 is procedure lane_driver_0.
var P_lane_driver_0 *value.Proc

// P_lane_driver_1 is procedure lane_driver_1.
var P_lane_driver_1 *value.Proc

func init() {
	P_wcTotal = value.NewProc("wcTotal", 0, machine_proc_wcTotal().Call)
	P_wcWords = value.NewProc("wcWords", 0, machine_proc_wcWords().Call)
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
	Global("wcTotal").Set(P_wcTotal)
	Global("wcWords").Set(P_wcWords)
}
