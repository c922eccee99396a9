// Code generated by junicon translate; DO NOT EDIT.

// Package bench_vm_primes holds the Go translation of an embedded Junicon program:
// one state machine per compiled code object (§5B), calling the vm's
// opcode methods for everything but control flow.
package bench_vm_primes

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

// proc_isprime is the state machine of isprime.
type proc_isprime struct{ vm.Frame }

func machine_proc_isprime() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "isprime", Params: 1, NumAux: 6,
		Slots:  []string{"n", "x_0", "d"},
		Consts: []value.V{intLit("2"), intLit("1"), intLit("0")},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_isprime); return f, &f.Frame },
	)
}

func (f *proc_isprime) Next() (value.V, bool) {
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
			r.Const(0)
			if !r.CmpTest(0) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(0)
			return r.ReturnFail()
		case 6:
			if r.Mark(1, 6) {
				r.Goto(32)
				continue
			}
			r.LoadSlot(0)
			r.Const(1)
			r.Arith(1)
			r.BindSlot(1)
			r.Pop()
			r.Const(0)
			r.LoadSlot(1)
			r.Const(1)
			fallthrough
		case 15:
			if !r.ToBy(3, 15) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.StoreSlot(2)
			r.Pop()
			fallthrough
		case 18:
			if r.Mark(2, 18) {
				r.Goto(31)
				continue
			}
			fallthrough
		case 19:
			if r.Mark(4, 19) {
				r.Goto(30)
				continue
			}
			fallthrough
		case 20:
			if r.Mark(5, 20) {
				r.Goto(28)
				continue
			}
			r.LoadSlot(0)
			r.LoadSlot(2)
			r.Arith(4)
			r.Const(2)
			if !r.CmpTest(4) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Cut(5)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 28:
			r.Cut(4)
			return r.ReturnFail()
		case 30:
			r.Cut(2)
			fallthrough
		case 31:
			if !r.Fail() {
				return nil, false
			}
			continue
		case 32:
			r.LoadSlot(0)
			return r.Return(34)
		case 34:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_isprime: bad pc")
		}
	}
}

// proc_primesBelow is the state machine of primesBelow.
type proc_primesBelow struct{ vm.Frame }

func machine_proc_primesBelow() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "primesBelow", Params: 1, NumAux: 3,
		Slots:       []string{"limit", "x_3"},
		Consts:      []value.V{intLit("2"), intLit("1")},
		Globals:     []*value.Var{Global("isprime")},
		GlobalNames: []string{"isprime"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_primesBelow); return f, &f.Frame },
	)
}

func (f *proc_primesBelow) Next() (value.V, bool) {
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
			r.LoadSlot(0)
			r.Const(1)
			fallthrough
		case 4:
			if !r.ToBy(1, 4) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(1)
			r.Pop()
			r.LoadGlobal(0)
			r.LoadSlot(1)
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
			panic("translated proc_primesBelow: bad pc")
		}
	}
}

// proc_countPrimes is the state machine of countPrimes.
type proc_countPrimes struct{ vm.Frame }

func machine_proc_countPrimes() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "countPrimes", Params: 1, NumAux: 3,
		Slots:       []string{"limit", "c", "x_4"},
		Consts:      []value.V{intLit("0"), intLit("2"), intLit("1")},
		Globals:     []*value.Var{Global("isprime")},
		GlobalNames: []string{"isprime"},
	}, func() (core.Gen, *vm.Frame) { f := new(proc_countPrimes); return f, &f.Frame },
	)
}

func (f *proc_countPrimes) Next() (value.V, bool) {
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
				r.Goto(17)
				continue
			}
			r.Const(1)
			r.LoadSlot(0)
			r.Const(2)
			fallthrough
		case 7:
			if !r.ToBy(1, 7) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.BindSlot(2)
			r.Pop()
			r.LoadGlobal(0)
			r.LoadSlot(2)
			fallthrough
		case 12:
			if !r.Call(1, 2, 12) {
				if !r.Fail() {
					return nil, false
				}
				continue
			}
			r.Pop()
			r.Const(2)
			r.Aug(4, 0)
			if !r.Fail() {
				return nil, false
			}
			continue
		case 17:
			r.LoadSlot(1)
			return r.Return(19)
		case 19:
			if !r.Fail() {
				return nil, false
			}
			continue
		default:
			panic("translated proc_countPrimes: bad pc")
		}
	}
}

// proc_lane_driver_0 is the state machine of lane_driver_0.
type proc_lane_driver_0 struct{ vm.Frame }

func machine_proc_lane_driver_0() *vm.Machine {
	return vm.Emitted(&compile.Code{
		Name: "lane_driver_0", Params: 0, NumAux: 2,
		Slots:       []string{},
		Consts:      []value.V{intLit("40")},
		Globals:     []*value.Var{Global("primesBelow")},
		GlobalNames: []string{"primesBelow"},
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
		Consts:      []value.V{intLit("200")},
		Globals:     []*value.Var{Global("countPrimes")},
		GlobalNames: []string{"countPrimes"},
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

// P_isprime is procedure isprime.
var P_isprime *value.Proc

// P_primesBelow is procedure primesBelow.
var P_primesBelow *value.Proc

// P_countPrimes is procedure countPrimes.
var P_countPrimes *value.Proc

// P_lane_driver_0 is procedure lane_driver_0.
var P_lane_driver_0 *value.Proc

// P_lane_driver_1 is procedure lane_driver_1.
var P_lane_driver_1 *value.Proc

func init() {
	P_isprime = value.NewProc("isprime", 1, machine_proc_isprime().Call)
	P_primesBelow = value.NewProc("primesBelow", 1, machine_proc_primesBelow().Call)
	P_countPrimes = value.NewProc("countPrimes", 1, machine_proc_countPrimes().Call)
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
	Global("countPrimes").Set(P_countPrimes)
	Global("isprime").Set(P_isprime)
	Global("lane_driver_0").Set(P_lane_driver_0)
	Global("lane_driver_1").Set(P_lane_driver_1)
	Global("primesBelow").Set(P_primesBelow)
}
