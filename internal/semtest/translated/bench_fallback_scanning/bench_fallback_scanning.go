// Code generated by junicon translate; DO NOT EDIT.

// Package bench_fallback_scanning holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package bench_fallback_scanning

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

// proc_tokens is the state machine of tokens.
type proc_tokens struct{ vm.Frame }

func machine_proc_tokens() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "tokens", Params: 1, NumAux: 17,
		Slots:  []string{"s", "x_0/x_1/x_2/x_3/x_5/x_6", "x_4", "w"},
		Consts: []value.V{builtins["pos"], intLit("0"), builtins["many"], value.NewCset(" "), builtins["tab"], value.NewCset("0123456789"), value.NewCset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"), builtins["move"], intLit("1")},
		Scan:   scanHolder,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_tokens); return f, &f.Frame },
	)
}

func (f *proc_tokens) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadSlot(0)
			if !r.ScanBegin(0, 0, 1) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 2:
			if r.Mark(1, 2) {
				r.Goto(79)
				continue
			}
			fallthrough
		case 3:
			if r.Mark(3, 3) {
				r.Goto(9)
				continue
			}
			r.Const(0)
			r.Const(1)
			fallthrough
		case 6:
			if !r.Call(1, 4, 6) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(3)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 9:
			r.Cut(1)
			fallthrough
		case 10:
			if r.Mark(2, 10) {
				r.Goto(78)
				continue
			}
			fallthrough
		case 11:
			if r.Mark(5, 11) {
				r.Goto(22)
				continue
			}
			r.Const(2)
			r.Const(3)
			fallthrough
		case 14:
			if !r.Call(1, 6, 14) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(1)
			r.Pop()
			r.Const(4)
			r.LoadSlot(1)
			fallthrough
		case 19:
			if !r.Call(1, 7, 19) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(5)
			r.Pop()
			fallthrough
		case 22:
			if r.Mark(8, 22) {
				r.Goto(30)
				continue
			}
			r.Const(0)
			r.Const(1)
			fallthrough
		case 25:
			if !r.Call(1, 9, 25) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(8)
			r.Pop()
			r.Cut(1)
			r.Goto(79)
			continue
		case 30:
			if r.Mark(10, 30) {
				r.Goto(71)
				continue
			}
			fallthrough
		case 31:
			if r.Fork(31) {
				r.Goto(65)
				continue
			}
			fallthrough
		case 32:
			if r.Fork(32) {
				r.Goto(45)
				continue
			}
			r.Const(5)
			r.BindSlot(1)
			r.Pop()
			r.Const(2)
			r.LoadSlot(1)
			fallthrough
		case 38:
			if !r.Call(1, 11, 38) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(1)
			r.Pop()
			r.Const(4)
			r.LoadSlot(1)
			fallthrough
		case 43:
			if !r.Call(1, 12, 43) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(64)
			continue
		case 45:
			r.Const(6)
			r.BindSlot(1)
			r.Pop()
			r.Const(5)
			r.BindSlot(2)
			r.Pop()
			r.LoadSlot(1)
			r.LoadSlot(2)
			r.Arith(8)
			r.BindSlot(1)
			r.Pop()
			r.Const(2)
			r.LoadSlot(1)
			fallthrough
		case 58:
			if !r.Call(1, 13, 58) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(1)
			r.Pop()
			r.Const(4)
			r.LoadSlot(1)
			fallthrough
		case 63:
			if !r.Call(1, 14, 63) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 64:
			r.Goto(68)
			continue
		case 65:
			r.Const(7)
			r.Const(8)
			fallthrough
		case 67:
			if !r.Call(1, 15, 67) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 68:
			r.StoreSlot(3)
			r.Cut(10)
			r.Pop()
			fallthrough
		case 71:
			if r.Mark(16, 71) {
				r.Goto(77)
				continue
			}
			r.LoadSlot(3)
			r.ScanLeave(1, 0)
			fallthrough
		case 74:
			return r.Yield(75)
		case 75:
			r.ScanResume(0, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 77:
			r.Cut(2)
			fallthrough
		case 78:
			r.Goto(2)
			continue
		case 79:
			r.ScanLeave(0, 0)
			return r.ReturnFail()
		default:
			panic("translated proc_tokens: bad pc")
		}
	}
}

// proc_pairs is the state machine of pairs.
type proc_pairs struct{ vm.Frame }

func machine_proc_pairs() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "pairs", Params: 1, NumAux: 16,
		Slots:  []string{"s", "x_9/x_11/x_12", "k", "v"},
		Consts: []value.V{builtins["pos"], intLit("0"), builtins["upto"], value.NewCset("="), builtins["tab"], builtins["move"], intLit("1"), value.NewCset(";"), value.String(":")},
		Scan:   scanHolder,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_pairs); return f, &f.Frame },
	)
}

func (f *proc_pairs) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			r.LoadSlot(0)
			if !r.ScanBegin(0, 0, 1) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 2:
			if r.Mark(1, 2) {
				r.Goto(63)
				continue
			}
			fallthrough
		case 3:
			if r.Mark(3, 3) {
				r.Goto(9)
				continue
			}
			r.Const(0)
			r.Const(1)
			fallthrough
		case 6:
			if !r.Call(1, 4, 6) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(3)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 9:
			r.Cut(1)
			fallthrough
		case 10:
			if r.Mark(2, 10) {
				r.Goto(62)
				continue
			}
			fallthrough
		case 11:
			if r.Mark(5, 11) {
				r.Goto(23)
				continue
			}
			r.Const(2)
			r.Const(3)
			fallthrough
		case 14:
			if !r.Call(1, 6, 14) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(1)
			r.Pop()
			r.Const(4)
			r.LoadSlot(1)
			fallthrough
		case 19:
			if !r.Call(1, 7, 19) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(2)
			r.Cut(5)
			r.Pop()
			fallthrough
		case 23:
			if r.Mark(8, 23) {
				r.Goto(29)
				continue
			}
			r.Const(5)
			r.Const(6)
			fallthrough
		case 26:
			if !r.Call(1, 9, 26) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(8)
			r.Pop()
			fallthrough
		case 29:
			if r.Mark(10, 29) {
				r.Goto(45)
				continue
			}
			fallthrough
		case 30:
			if r.Fork(30) {
				r.Goto(35)
				continue
			}
			r.Const(2)
			r.Const(7)
			fallthrough
		case 33:
			if !r.Call(1, 11, 33) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(36)
			continue
		case 35:
			r.Const(1)
			fallthrough
		case 36:
			r.StoreSlot(1)
			r.BindSlot(1)
			r.Pop()
			r.Const(4)
			r.LoadSlot(1)
			fallthrough
		case 41:
			if !r.Call(1, 12, 41) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(3)
			r.Cut(10)
			r.Pop()
			fallthrough
		case 45:
			if r.Mark(13, 45) {
				r.Goto(55)
				continue
			}
			r.LoadSlot(2)
			r.Const(8)
			r.Arith(6)
			r.LoadSlot(3)
			r.Arith(6)
			r.ScanLeave(1, 0)
			fallthrough
		case 52:
			return r.Yield(53)
		case 53:
			r.ScanResume(0, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 55:
			if r.Mark(14, 55) {
				r.Goto(61)
				continue
			}
			r.Const(5)
			r.Const(6)
			fallthrough
		case 58:
			if !r.Call(1, 15, 58) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(14)
			r.Pop()
			fallthrough
		case 61:
			r.Cut(2)
			fallthrough
		case 62:
			r.Goto(2)
			continue
		case 63:
			r.ScanLeave(0, 0)
			return r.ReturnFail()
		default:
			panic("translated proc_pairs: bad pc")
		}
	}
}

// proc_countTokens is the state machine of countTokens.
type proc_countTokens struct{ vm.Frame }

func machine_proc_countTokens() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "countTokens", Params: 1, NumAux: 5,
		Slots:       []string{"n", "c"},
		Consts:      []value.V{intLit("0"), intLit("1"), value.String("alpha 12 beta34 + gamma 56")},
		Globals:     []*value.Var{Global("tokens")},
		GlobalNames: []string{"tokens"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_countTokens); return f, &f.Frame },
	)
}

func (f *proc_countTokens) Next() (value.V, bool) {
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
				r.Goto(20)
				continue
			}
			r.Const(1)
			r.LoadSlot(0)
			r.Const(1)
			fallthrough
		case 7:
			if !r.ToBy(2, 7) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Pop()
			fallthrough
		case 9:
			if r.Mark(1, 9) {
				r.Goto(19)
				continue
			}
			fallthrough
		case 10:
			if r.Mark(3, 10) {
				r.Goto(18)
				continue
			}
			r.LoadGlobal(0)
			r.Const(2)
			fallthrough
		case 13:
			if !r.Call(1, 4, 13) {
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
		case 18:
			r.Cut(1)
			fallthrough
		case 19:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 20:
			r.LoadSlot(1)
			return r.Return(22)
		case 22:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_countTokens: bad pc")
		}
	}
}

// proc_lane_driver_0 is the state machine of lane_driver_0.
type proc_lane_driver_0 struct{ vm.Frame }

func machine_proc_lane_driver_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_0", Params: 0, NumAux: 2,
		Slots:       []string{},
		Consts:      []value.V{value.String("let x1 = 42 + y")},
		Globals:     []*value.Var{Global("tokens")},
		GlobalNames: []string{"tokens"},
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
		Consts:      []value.V{value.String("a=1;bb=22;ccc=333")},
		Globals:     []*value.Var{Global("pairs")},
		GlobalNames: []string{"pairs"},
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
		Consts:      []value.V{intLit("20")},
		Globals:     []*value.Var{Global("countTokens")},
		GlobalNames: []string{"countTokens"},
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

// P_tokens is procedure tokens.
var P_tokens *value.Proc

// P_pairs is procedure pairs.
var P_pairs *value.Proc

// P_countTokens is procedure countTokens.
var P_countTokens *value.Proc

// P_lane_driver_0 is procedure lane_driver_0.
var P_lane_driver_0 *value.Proc

// P_lane_driver_1 is procedure lane_driver_1.
var P_lane_driver_1 *value.Proc

// P_lane_driver_2 is procedure lane_driver_2.
var P_lane_driver_2 *value.Proc

func init() {
	P_tokens = value.NewProc("tokens", 1, machine_proc_tokens().Call)
	P_pairs = value.NewProc("pairs", 1, machine_proc_pairs().Call)
	P_countTokens = value.NewProc("countTokens", 1, machine_proc_countTokens().Call)
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
	Global("countTokens").Set(P_countTokens)
	Global("lane_driver_0").Set(P_lane_driver_0)
	Global("lane_driver_1").Set(P_lane_driver_1)
	Global("lane_driver_2").Set(P_lane_driver_2)
	Global("pairs").Set(P_pairs)
	Global("tokens").Set(P_tokens)
}
