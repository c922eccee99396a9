// Code generated by junicon translate; DO NOT EDIT.

// Package corpus_revassign holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package corpus_revassign

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

// proc_undoOne is the state machine of undoOne.
type proc_undoOne struct{ vm.Frame }

func machine_proc_undoOne() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "undoOne", Params: 0, NumAux: 2,
		Slots:  []string{"x"},
		Consts: []value.V{intLit("0"), intLit("5"), intLit("9")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_undoOne); return f, &f.Frame },
	)
}

func (f *proc_undoOne) Next() (value.V, bool) {
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
				r.Goto(9)
				continue
			}
			r.Const(1)
			fallthrough
		case 5:
			if !r.RevAssign(0, 1, 5) {
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
		case 9:
			r.LoadSlot(0)
			return r.Return(11)
		case 11:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_undoOne: bad pc")
		}
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

// proc_swapped is the state machine of swapped.
type proc_swapped struct{ vm.Frame }

func machine_proc_swapped() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "swapped", Params: 2, NumAux: 3,
		Slots:  []string{"a", "b"},
		Consts: []value.V{intLit("99")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_swapped); return f, &f.Frame },
	)
}

func (f *proc_swapped) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(11)
				continue
			}
			fallthrough
		case 1:
			if r.Fork(1) {
				r.Goto(8)
				continue
			}
			fallthrough
		case 2:
			if !r.Swap(0, 1, 4, 2, true) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Pop()
			r.LoadSlot(0)
			r.Const(0)
			if !r.Cmp(2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(9)
			continue
		case 8:
			if !r.Swap(0, 2, 4, 8, false) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 9:
			r.Cut(0)
			r.Pop()
			fallthrough
		case 11:
			r.LoadSlot(0)
			r.LoadSlot(1)
			r.MakeList(2)
			return r.Return(15)
		case 15:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_swapped: bad pc")
		}
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

// proc_stepped_0 is the state machine of stepped|<>0.
type proc_stepped_0 struct{ vm.Frame }

func machine_proc_stepped_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "stepped|<>0", Params: 1, NumAux: 1,
		Slots:  []string{"limit"},
		Consts: []value.V{intLit("1")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_stepped_0); return f, &f.Frame },
	)
}

func (f *proc_stepped_0) Next() (value.V, bool) {
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
			panic("translated proc_stepped_0: bad pc")
		}
	}
}

// proc_stepped is the state machine of stepped.
type proc_stepped struct{ vm.Frame }

func machine_proc_stepped() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "stepped", Params: 1, NumAux: 4,
		Slots:  []string{"limit", "c", "s", "x", "x_7"},
		Consts: []value.V{intLit("0"), intLit("100")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_stepped); return f, &f.Frame },
		machine_proc_stepped_0(),
	)
}

func (f *proc_stepped) Next() (value.V, bool) {
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
				r.Goto(23)
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
			fallthrough
		case 13:
			if r.Mark(1, 13) {
				r.Goto(22)
				continue
			}
			r.LoadSlot(3)
			r.Aug(8, 0)
			r.Pop()
			fallthrough
		case 17:
			if r.Mark(2, 17) {
				r.Goto(21)
				continue
			}
			r.LoadSlot(2)
			fallthrough
		case 19:
			return r.Yield(20)
		case 20:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 21:
			r.Cut(1)
			fallthrough
		case 22:
			r.Goto(7)
			continue
		case 23:
			r.LoadSlot(1)
			r.Unary(4)
			r.StoreSlot(1)
			r.Pop()
			fallthrough
		case 27:
			if r.Mark(3, 27) {
				r.Goto(42)
				continue
			}
			fallthrough
		case 28:
			if r.Fork(28) {
				r.Goto(36)
				continue
			}
			fallthrough
		case 29:
			if r.Fork(29) {
				r.Goto(33)
				continue
			}
			r.LoadSlot(1)
			r.Unary(3)
			r.Goto(35)
			continue
		case 33:
			r.LoadSlot(1)
			if !r.Activate(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 35:
			r.Goto(37)
			continue
		case 36:
			r.Const(1)
			fallthrough
		case 37:
			r.StoreSlot(4)
			r.LoadSlot(1)
			if !r.Activate(1) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 40:
			return r.Yield(41)
		case 41:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 42:
			return r.ReturnFail()
		default:
			panic("translated proc_stepped: bad pc")
		}
	}
}

// proc_fields is the state machine of fields.
type proc_fields struct{ vm.Frame }

func machine_proc_fields() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "fields", Params: 1, NumAux: 11,
		Slots:  []string{"s", "x_8/x_9/x_10/x_11/x_13", "w", "x_14"},
		Consts: []value.V{value.NewCset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"), builtins["upto"], builtins["tab"], builtins["many"], value.String("skip"), value.String("stop"), value.String(":")},
		Scan:   scanHolder,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_fields); return f, &f.Frame },
	)
}

func (f *proc_fields) Next() (value.V, bool) {
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
				r.Goto(66)
				continue
			}
			r.Const(0)
			r.BindSlot(1)
			r.Pop()
			r.Const(1)
			r.LoadSlot(1)
			fallthrough
		case 8:
			if !r.Call(1, 3, 8) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(1)
			r.Pop()
			r.Const(2)
			r.LoadSlot(1)
			fallthrough
		case 13:
			if !r.Call(1, 4, 13) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(1)
			r.Pop()
			fallthrough
		case 16:
			if r.Mark(2, 16) {
				r.Goto(65)
				continue
			}
			fallthrough
		case 17:
			if r.Mark(5, 17) {
				r.Goto(32)
				continue
			}
			r.Const(0)
			r.BindSlot(1)
			r.Pop()
			r.Const(3)
			r.LoadSlot(1)
			fallthrough
		case 23:
			if !r.Call(1, 6, 23) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(1)
			r.Pop()
			r.Const(2)
			r.LoadSlot(1)
			fallthrough
		case 28:
			if !r.Call(1, 7, 28) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(2)
			r.Cut(5)
			r.Pop()
			fallthrough
		case 32:
			if r.Mark(8, 32) {
				r.Goto(39)
				continue
			}
			r.LoadSlot(2)
			r.Const(4)
			if !r.CmpTest(9) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(8)
			r.Cut(2)
			r.Goto(65)
			continue
		case 39:
			if r.Mark(9, 39) {
				r.Goto(48)
				continue
			}
			r.LoadSlot(2)
			r.Const(5)
			if !r.CmpTest(9) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(9)
			r.ScanVar(1)
			r.ScanLeave(1, 0)
			return r.Return(47)
		case 47:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 48:
			if r.Mark(10, 48) {
				r.Goto(64)
				continue
			}
			r.LoadSlot(2)
			r.Const(6)
			r.Arith(6)
			r.BindSlot(1)
			r.Pop()
			r.ScanVar(1)
			r.BindSlot(3)
			r.Pop()
			r.LoadSlot(1)
			r.LoadSlot(3)
			r.Arith(6)
			r.ScanLeave(1, 0)
			fallthrough
		case 61:
			return r.Yield(62)
		case 62:
			r.ScanResume(0, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 64:
			r.Cut(2)
			fallthrough
		case 65:
			r.Goto(2)
			continue
		case 66:
			r.ScanLeave(0, 0)
			return r.ReturnFail()
		default:
			panic("translated proc_fields: bad pc")
		}
	}
}

// proc_scanned is the state machine of scanned.
type proc_scanned struct{ vm.Frame }

func machine_proc_scanned() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "scanned", Params: 1, NumAux: 6,
		Slots:  []string{"s", "x_15/x_16/x_18/x_19/x_20/x_21", "x_17"},
		Consts: []value.V{builtins["upto"], value.NewCset(","), builtins["tab"], value.String("|"), builtins["tabMatch"], value.String(","), intLit("0"), intLit("1")},
		Scan:   scanHolder,
	}, func() (core.Gen, *vm.Frame) { f := new(proc_scanned); return f, &f.Frame },
	)
}

func (f *proc_scanned) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(40)
				continue
			}
			r.LoadSlot(0)
			fallthrough
		case 2:
			if !r.ScanBegin(1, 1, 2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Const(0)
			r.Const(1)
			fallthrough
		case 5:
			if !r.Call(1, 2, 5) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(1)
			r.Pop()
			r.Const(2)
			r.LoadSlot(1)
			fallthrough
		case 10:
			if !r.Call(1, 3, 10) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(1)
			r.Const(3)
			r.Arith(6)
			r.BindSlot(2)
			r.Pop()
			r.Const(4)
			r.Const(5)
			fallthrough
		case 18:
			if !r.Call(1, 4, 18) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Pop()
			fallthrough
		case 20:
			if r.Fork(20) {
				r.Goto(23)
				continue
			}
			r.Const(6)
			r.Goto(25)
			continue
		case 23:
			r.Const(7)
			r.Unary(0)
			fallthrough
		case 25:
			r.StoreSlot(1)
			r.BindSlot(1)
			r.Pop()
			r.Const(2)
			r.LoadSlot(1)
			fallthrough
		case 30:
			if !r.Call(1, 5, 30) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(1)
			r.BindSlot(1)
			r.Pop()
			r.LoadSlot(2)
			r.LoadSlot(1)
			r.Arith(6)
			fallthrough
		case 37:
			if !r.ScanEnd(1, 37) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 38:
			return r.Yield(39)
		case 39:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 40:
			return r.ReturnFail()
		default:
			panic("translated proc_scanned: bad pc")
		}
	}
}

// proc_perCycle is the state machine of perCycle.
type proc_perCycle struct{ vm.Frame }

func machine_proc_perCycle() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "perCycle", Params: 0, NumAux: 5,
		Slots:  []string{"x", "v"},
		Consts: []value.V{intLit("0"), intLit("3"), intLit("7"), intLit("1")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_perCycle); return f, &f.Frame },
	)
}

func (f *proc_perCycle) Next() (value.V, bool) {
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
				r.Goto(26)
				continue
			}
			r.Const(1)
			if !r.LimitBegin(2) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 6:
			if !r.RepAlt(3, 6) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 7:
			r.LoadSlot(0)
			r.Const(2)
			r.MakeList(2)
			r.Const(3)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.RepNote(3)
			r.LimitCheck(2)
			r.StoreSlot(1)
			r.Pop()
			fallthrough
		case 16:
			if r.Mark(1, 16) {
				r.Goto(25)
				continue
			}
			fallthrough
		case 17:
			if r.Mark(4, 17) {
				r.Goto(21)
				continue
			}
			r.LoadSlot(1)
			fallthrough
		case 19:
			return r.Yield(20)
		case 20:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 21:
			r.Const(3)
			r.Aug(0, 0)
			r.Pop()
			r.Cut(1)
			fallthrough
		case 25:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 26:
			return r.ReturnFail()
		default:
			panic("translated proc_perCycle: bad pc")
		}
	}
}

// proc_counted is the state machine of counted.
type proc_counted struct{ vm.Frame }

func machine_proc_counted() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "counted", Params: 0, NumAux: 1,
		Slots:       []string{"x_25"},
		Consts:      []value.V{intLit("0"), intLit("1")},
		Globals:     []*value.Var{Global("count")},
		GlobalNames: []string{"count"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_counted); return f, &f.Frame },
	)
}

func (f *proc_counted) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(12)
				continue
			}
			fallthrough
		case 1:
			if r.Fork(1) {
				r.Goto(5)
				continue
			}
			r.LoadGlobal(0)
			if !r.NonNullTest() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(6)
			continue
		case 5:
			r.Const(0)
			fallthrough
		case 6:
			r.StoreSlot(0)
			r.Const(1)
			r.Arith(0)
			r.StoreGlobal(0)
			r.Cut(0)
			r.Pop()
			fallthrough
		case 12:
			r.LoadGlobal(0)
			return r.Return(14)
		case 14:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_counted: bad pc")
		}
	}
}

// proc_lane_driver_0 is the state machine of lane_driver_0.
type proc_lane_driver_0 struct{ vm.Frame }

func machine_proc_lane_driver_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_0", Params: 0, NumAux: 2,
		Slots:       []string{},
		Globals:     []*value.Var{Global("undoOne")},
		GlobalNames: []string{"undoOne"},
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
		Name: "lane_driver_1", Params: 0, NumAux: 3,
		Slots:       []string{"x_27"},
		Consts:      []value.V{intLit("3"), intLit("11"), intLit("4")},
		Globals:     []*value.Var{Global("firstAbove")},
		GlobalNames: []string{"firstAbove"},
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
				r.Goto(12)
				continue
			}
			r.Const(0)
			r.Const(1)
			r.Const(2)
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
			r.LoadGlobal(0)
			r.LoadSlot(0)
			fallthrough
		case 9:
			if !r.Call(1, 2, 9) {
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
		Name: "lane_driver_2", Params: 0, NumAux: 3,
		Slots:       []string{"x_28"},
		Consts:      []value.V{intLit("1"), intLit("2"), intLit("7")},
		Globals:     []*value.Var{Global("swapped")},
		GlobalNames: []string{"swapped"},
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
				r.Goto(13)
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
			r.LoadGlobal(0)
			r.LoadSlot(0)
			r.Const(2)
			fallthrough
		case 10:
			if !r.Call(2, 2, 10) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 11:
			return r.Yield(12)
		case 12:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 13:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_2: bad pc")
		}
	}
}

// proc_lane_driver_3 is the state machine of lane_driver_3.
type proc_lane_driver_3 struct{ vm.Frame }

func machine_proc_lane_driver_3() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_3", Params: 0, NumAux: 3,
		Slots:       []string{},
		Consts:      []value.V{intLit("4")},
		Globals:     []*value.Var{Global("ticks"), Global("tick")},
		GlobalNames: []string{"ticks", "tick"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_3); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_3) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(10)
				continue
			}
			fallthrough
		case 1:
			if r.Fork(1) {
				r.Goto(6)
				continue
			}
			r.LoadGlobal(0)
			r.Const(0)
			fallthrough
		case 4:
			if !r.Call(1, 1, 4) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Goto(8)
			continue
		case 6:
			r.LoadGlobal(1)
			fallthrough
		case 7:
			if !r.Call(0, 2, 7) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 8:
			return r.Yield(9)
		case 9:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 10:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_3: bad pc")
		}
	}
}

// proc_lane_driver_4 is the state machine of lane_driver_4.
type proc_lane_driver_4 struct{ vm.Frame }

func machine_proc_lane_driver_4() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_4", Params: 0, NumAux: 4,
		Slots:       []string{"x_29"},
		Consts:      []value.V{intLit("4"), intLit("10")},
		Globals:     []*value.Var{Global("tick")},
		GlobalNames: []string{"tick"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_4); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_4) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(13)
				continue
			}
			r.Const(0)
			if !r.LimitBegin(1) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 3:
			if !r.RepAlt(2, 3) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 4:
			r.LoadGlobal(0)
			fallthrough
		case 5:
			if !r.Call(0, 3, 5) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(0)
			r.Const(1)
			r.Arith(0)
			r.RepNote(2)
			r.LimitCheck(1)
			fallthrough
		case 11:
			return r.Yield(12)
		case 12:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 13:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_4: bad pc")
		}
	}
}

// proc_lane_driver_5 is the state machine of lane_driver_5.
type proc_lane_driver_5 struct{ vm.Frame }

func machine_proc_lane_driver_5() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_5", Params: 0, NumAux: 4,
		Slots:       []string{"x_30"},
		Consts:      []value.V{intLit("3"), intLit("7"), intLit("1")},
		Globals:     []*value.Var{Global("tick")},
		GlobalNames: []string{"tick"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_5); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_5) Next() (value.V, bool) {
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
			if !r.LimitBegin(1) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 3:
			if !r.RepAlt(2, 3) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 4:
			r.LoadGlobal(0)
			fallthrough
		case 5:
			if !r.Call(0, 3, 5) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(0)
			r.Const(1)
			r.MakeList(2)
			r.Const(2)
			if !r.Index() {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.RepNote(2)
			r.LimitCheck(1)
			fallthrough
		case 13:
			return r.Yield(14)
		case 14:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 15:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_5: bad pc")
		}
	}
}

// proc_lane_driver_6 is the state machine of lane_driver_6.
type proc_lane_driver_6 struct{ vm.Frame }

func machine_proc_lane_driver_6() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_6", Params: 0, NumAux: 2,
		Slots:       []string{},
		Globals:     []*value.Var{Global("perCycle")},
		GlobalNames: []string{"perCycle"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_6); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_6) Next() (value.V, bool) {
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
			panic("translated proc_lane_driver_6: bad pc")
		}
	}
}

// proc_lane_driver_7 is the state machine of lane_driver_7.
type proc_lane_driver_7 struct{ vm.Frame }

func machine_proc_lane_driver_7() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_7", Params: 0, NumAux: 4,
		Slots:       []string{"x_32"},
		Consts:      []value.V{intLit("3"), intLit("10")},
		Globals:     []*value.Var{Global("counted")},
		GlobalNames: []string{"counted"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_7); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_7) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(13)
				continue
			}
			r.Const(0)
			if !r.LimitBegin(1) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 3:
			if !r.RepAlt(2, 3) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 4:
			r.LoadGlobal(0)
			fallthrough
		case 5:
			if !r.Call(0, 3, 5) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(0)
			r.Const(1)
			r.Arith(0)
			r.RepNote(2)
			r.LimitCheck(1)
			fallthrough
		case 11:
			return r.Yield(12)
		case 12:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 13:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_7: bad pc")
		}
	}
}

// proc_lane_driver_8 is the state machine of lane_driver_8.
type proc_lane_driver_8 struct{ vm.Frame }

func machine_proc_lane_driver_8() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_8", Params: 0, NumAux: 2,
		Slots:       []string{},
		Consts:      []value.V{intLit("5")},
		Globals:     []*value.Var{Global("stepped")},
		GlobalNames: []string{"stepped"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_8); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_8) Next() (value.V, bool) {
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
			panic("translated proc_lane_driver_8: bad pc")
		}
	}
}

// proc_lane_driver_9 is the state machine of lane_driver_9.
type proc_lane_driver_9 struct{ vm.Frame }

func machine_proc_lane_driver_9() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_9", Params: 0, NumAux: 2,
		Slots:       []string{},
		Consts:      []value.V{value.String("ab skip cd,ef stop gh")},
		Globals:     []*value.Var{Global("fields")},
		GlobalNames: []string{"fields"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_9); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_9) Next() (value.V, bool) {
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
			panic("translated proc_lane_driver_9: bad pc")
		}
	}
}

// proc_lane_driver_10 is the state machine of lane_driver_10.
type proc_lane_driver_10 struct{ vm.Frame }

func machine_proc_lane_driver_10() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_10", Params: 0, NumAux: 2,
		Slots:       []string{"x_33/x_34"},
		Consts:      []value.V{value.String("a,b"), value.String("no"), value.String("x,y,z")},
		Globals:     []*value.Var{Global("scanned")},
		GlobalNames: []string{"scanned"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_lane_driver_10); return f, &f.Frame },
	)
}

func (f *proc_lane_driver_10) Next() (value.V, bool) {
	r := &f.Frame
	r.Enter()
	for {
		switch r.PC() {
		case 0:
			if r.Mark(0, 0) {
				r.Goto(16)
				continue
			}
			fallthrough
		case 1:
			if r.Fork(1) {
				r.Goto(7)
				continue
			}
			fallthrough
		case 2:
			if r.Fork(2) {
				r.Goto(5)
				continue
			}
			r.Const(0)
			r.Goto(6)
			continue
		case 5:
			r.Const(1)
			fallthrough
		case 6:
			r.Goto(8)
			continue
		case 7:
			r.Const(2)
			fallthrough
		case 8:
			r.StoreSlot(0)
			r.BindSlot(0)
			r.Pop()
			r.LoadGlobal(0)
			r.LoadSlot(0)
			fallthrough
		case 13:
			if !r.Call(1, 1, 13) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			fallthrough
		case 14:
			return r.Yield(15)
		case 15:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 16:
			return r.ReturnFail()
		default:
			panic("translated proc_lane_driver_10: bad pc")
		}
	}
}

// P_undoOne is procedure undoOne.
var P_undoOne *value.Proc

// P_firstAbove is procedure firstAbove.
var P_firstAbove *value.Proc

// P_swapped is procedure swapped.
var P_swapped *value.Proc

// P_tick is procedure tick.
var P_tick *value.Proc

// P_ticks is procedure ticks.
var P_ticks *value.Proc

// P_stepped is procedure stepped.
var P_stepped *value.Proc

// P_fields is procedure fields.
var P_fields *value.Proc

// P_scanned is procedure scanned.
var P_scanned *value.Proc

// P_perCycle is procedure perCycle.
var P_perCycle *value.Proc

// P_counted is procedure counted.
var P_counted *value.Proc

// P_lane_driver_0 is procedure lane_driver_0.
var P_lane_driver_0 *value.Proc

// P_lane_driver_1 is procedure lane_driver_1.
var P_lane_driver_1 *value.Proc

// P_lane_driver_2 is procedure lane_driver_2.
var P_lane_driver_2 *value.Proc

// P_lane_driver_3 is procedure lane_driver_3.
var P_lane_driver_3 *value.Proc

// P_lane_driver_4 is procedure lane_driver_4.
var P_lane_driver_4 *value.Proc

// P_lane_driver_5 is procedure lane_driver_5.
var P_lane_driver_5 *value.Proc

// P_lane_driver_6 is procedure lane_driver_6.
var P_lane_driver_6 *value.Proc

// P_lane_driver_7 is procedure lane_driver_7.
var P_lane_driver_7 *value.Proc

// P_lane_driver_8 is procedure lane_driver_8.
var P_lane_driver_8 *value.Proc

// P_lane_driver_9 is procedure lane_driver_9.
var P_lane_driver_9 *value.Proc

// P_lane_driver_10 is procedure lane_driver_10.
var P_lane_driver_10 *value.Proc

func init() {
	P_undoOne = value.NewProc("undoOne", 0, machine_proc_undoOne().Call)
	P_firstAbove = value.NewProc("firstAbove", 1, machine_proc_firstAbove().Call)
	P_swapped = value.NewProc("swapped", 2, machine_proc_swapped().Call)
	P_tick = value.NewProc("tick", 0, machine_proc_tick().Call)
	P_ticks = value.NewProc("ticks", 1, machine_proc_ticks().Call)
	P_stepped = value.NewProc("stepped", 1, machine_proc_stepped().Call)
	P_fields = value.NewProc("fields", 1, machine_proc_fields().Call)
	P_scanned = value.NewProc("scanned", 1, machine_proc_scanned().Call)
	P_perCycle = value.NewProc("perCycle", 0, machine_proc_perCycle().Call)
	P_counted = value.NewProc("counted", 0, machine_proc_counted().Call)
	P_lane_driver_0 = value.NewProc("lane_driver_0", 0, machine_proc_lane_driver_0().Call)
	P_lane_driver_1 = value.NewProc("lane_driver_1", 0, machine_proc_lane_driver_1().Call)
	P_lane_driver_2 = value.NewProc("lane_driver_2", 0, machine_proc_lane_driver_2().Call)
	P_lane_driver_3 = value.NewProc("lane_driver_3", 0, machine_proc_lane_driver_3().Call)
	P_lane_driver_4 = value.NewProc("lane_driver_4", 0, machine_proc_lane_driver_4().Call)
	P_lane_driver_5 = value.NewProc("lane_driver_5", 0, machine_proc_lane_driver_5().Call)
	P_lane_driver_6 = value.NewProc("lane_driver_6", 0, machine_proc_lane_driver_6().Call)
	P_lane_driver_7 = value.NewProc("lane_driver_7", 0, machine_proc_lane_driver_7().Call)
	P_lane_driver_8 = value.NewProc("lane_driver_8", 0, machine_proc_lane_driver_8().Call)
	P_lane_driver_9 = value.NewProc("lane_driver_9", 0, machine_proc_lane_driver_9().Call)
	P_lane_driver_10 = value.NewProc("lane_driver_10", 0, machine_proc_lane_driver_10().Call)
	declare()
}

// declare puts the program in its declared state: its statics and
// globals null, its procedures, records and classes bound.
func declare() {
	for _, v := range statics {
		v.Set(value.NullV)
	}
	Global("count").Set(value.NullV)
	Global("counted").Set(P_counted)
	Global("fields").Set(P_fields)
	Global("firstAbove").Set(P_firstAbove)
	Global("lane_driver_0").Set(P_lane_driver_0)
	Global("lane_driver_1").Set(P_lane_driver_1)
	Global("lane_driver_10").Set(P_lane_driver_10)
	Global("lane_driver_2").Set(P_lane_driver_2)
	Global("lane_driver_3").Set(P_lane_driver_3)
	Global("lane_driver_4").Set(P_lane_driver_4)
	Global("lane_driver_5").Set(P_lane_driver_5)
	Global("lane_driver_6").Set(P_lane_driver_6)
	Global("lane_driver_7").Set(P_lane_driver_7)
	Global("lane_driver_8").Set(P_lane_driver_8)
	Global("lane_driver_9").Set(P_lane_driver_9)
	Global("perCycle").Set(P_perCycle)
	Global("scanned").Set(P_scanned)
	Global("stepped").Set(P_stepped)
	Global("swapped").Set(P_swapped)
	Global("tick").Set(P_tick)
	Global("ticks").Set(P_ticks)
	Global("undoOne").Set(P_undoOne)
}
