// Code generated by junicon translate; DO NOT EDIT.

// Package fig3 holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package fig3

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

// proc_readLines is the state machine of readLines.
type proc_readLines struct{ vm.Frame }

func machine_proc_readLines() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "readLines", Params: 0, NumAux: 2,
		Slots:       []string{},
		Globals:     []*value.Var{Global("lines")},
		GlobalNames: []string{"lines"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_readLines); return f, &f.Frame },
	)
}

func (f *proc_readLines) Next() (value.V, bool) {
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
			if !r.Bang(1, 2, false) {
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
			panic("translated proc_readLines: bad pc")
		}
	}
}

// proc_splitWords is the state machine of splitWords.
type proc_splitWords struct{ vm.Frame }

func machine_proc_splitWords() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "splitWords", Params: 1, NumAux: 3,
		Slots:  []string{"line"},
		Consts: []value.V{native("split")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_splitWords); return f, &f.Frame },
	)
}

func (f *proc_splitWords) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(6)
				continue
			}
			r.LoadSlot(0)
			if !r.CallNative(1, 1, 0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 3:
			if !r.Bang(2, 3, false) {
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
			panic("translated proc_splitWords: bad pc")
		}
	}
}

// proc_hashWords is the state machine of hashWords.
type proc_hashWords struct{ vm.Frame }

func machine_proc_hashWords() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "hashWords", Params: 1, NumAux: 4,
		Slots:       []string{"line"},
		Consts:      []value.V{native("wordToNumber"), native("hashNumber")},
		Globals:     []*value.Var{Global("splitWords")},
		GlobalNames: []string{"splitWords"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_hashWords); return f, &f.Frame },
	)
}

func (f *proc_hashWords) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(8)
				continue
			}
			r.LoadGlobal(0)
			r.LoadSlot(0)
			fallthrough
		case 3:
			if !r.Call(1, 1, 3) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			if !r.CallNative(1, 2, 0) {
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
			fallthrough
		case 6:
			return r.Yield(7)
		case 7:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 8:
			return r.ReturnFail()
		default:
			panic("translated proc_hashWords: bad pc")
		}
	}
}

// proc_sumHash is the state machine of sumHash.
type proc_sumHash struct{ vm.Frame }

func machine_proc_sumHash() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "sumHash", Params: 2, NumAux: 0,
		Slots: []string{"sofar", "hash"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_sumHash); return f, &f.Frame },
	)
}

func (f *proc_sumHash) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadSlot(0)
			r.LoadSlot(1)
			r.Arith(0)
			return r.Return(4)
		case 4:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_sumHash: bad pc")
		}
	}
}

// stmt1 is the state machine of a top-level statement.
type stmt1 struct{ vm.Frame }

func machine_stmt1() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "", Params: 0, NumAux: 4,
		Slots:       []string{"x_3"},
		Consts:      []value.V{native("wordToNumber"), native("hashNumber")},
		Globals:     []*value.Var{Global("readLines"), Global("splitWords")},
		GlobalNames: []string{"readLines", "splitWords"},
	}, func() (core.Gen, *vm.Frame) { f := new(stmt1); return f, &f.Frame },
	)
}

func (f *stmt1) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadGlobal(0)
			fallthrough
		case 1:
			if !r.Call(0, 0, 1) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(0)
			r.Pop()
			r.LoadGlobal(1)
			r.LoadSlot(0)
			fallthrough
		case 6:
			if !r.Call(1, 1, 6) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			if !r.CallNative(1, 2, 0) {
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
			fallthrough
		case 9:
			return r.Yield(10)
		case 10:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated stmt1: bad pc")
		}
	}
}

// P_readLines is procedure readLines.
var P_readLines *value.Proc

// P_splitWords is procedure splitWords.
var P_splitWords *value.Proc

// P_hashWords is procedure hashWords.
var P_hashWords *value.Proc

// P_sumHash is procedure sumHash.
var P_sumHash *value.Proc

func init() {
	P_readLines = value.NewProc("readLines", 0, machine_proc_readLines().Call)
	P_splitWords = value.NewProc("splitWords", 1, machine_proc_splitWords().Call)
	P_hashWords = value.NewProc("hashWords", 1, machine_proc_hashWords().Call)
	P_sumHash = value.NewProc("sumHash", 2, machine_proc_sumHash().Call)
	Statements = append(Statements, machine_stmt1())
	declare()
}

// declare puts the program in its declared state: its statics and
// globals null, its procedures, records and classes bound.
func declare() {
	for _, v := range statics {
		v.Set(value.NullV)
	}
	Global("hashWords").Set(P_hashWords)
	Global("readLines").Set(P_readLines)
	Global("splitWords").Set(P_splitWords)
	Global("sumHash").Set(P_sumHash)
}
