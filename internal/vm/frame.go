// Package vm executes the compile package's bytecode in slot-based
// resumable frames. A frame is the compiled counterpart of a tree-walk
// generator tower: its program counter, slots, operand stack, choice
// stack and aux cells are the whole continuation, so suspend/resume is
// "return from Next / re-enter the loop" and backtracking is "pop a
// choice point" — no interface dispatch per resume, no closure allocation
// per generator. The code a frame runs has been through compile's pass
// after lowering: a bounded context that cannot fail arms no choice
// point, and a comparison whose result is only popped is cmp.test, which
// decides on two small integers in int64 and pushes nothing.
//
// Frames satisfy the kernel's generator contract (core.Gen), including
// auto-restart: after the frame's sequence is exhausted, the next Next
// re-runs it from the top, exactly as the paper's iterators restart after
// failure (§5B). Frames recycle through a per-Machine sync.Pool so the
// steady-state cost of calling a compiled procedure is a reset, not an
// allocation: a frame hands the child frames cached at its call sites back
// to their pools when it returns or is exhausted (nothing can resume them
// then), and keeps them while it only suspends.
//
// Slots and operand-stack entries are typed: a small integer born in the
// frame — a to-by counter, an int64 arithmetic result — stays unboxed, and
// is boxed with value.IntV only where it leaves the frame: yield, return,
// call and native arguments, globals, structure construction, every
// generic operation, and snapshot capture. Outside the frame it is exactly
// the value it always was.
package vm

import (
	"sync"
	"sync/atomic"

	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/value"
)

// choice is one choice point: the instruction to re-enter on failure and
// the operand-stack depth to restore first.
type choice struct {
	pc, sp int32
}

// slot is one frame slot or operand-stack entry: the value v, or — when v
// is the unboxed marker — the small integer n. Deref and IsNull pass the
// marker through unchanged, so code that only dereferences or null-tests
// an entry may do so on v without boxing it.
type slot struct {
	v value.V
	n int64
}

// unboxed is the marker type of an unboxed integer slot. No value of it
// leaves the package: every exit from the frame goes through slot.val.
type unboxed struct{}

func (unboxed) Type() string  { return "integer" }
func (unboxed) Image() string { return "<unboxed>" }

// intSlot is the unboxed small integer n.
func intSlot(n int64) slot { return slot{v: unboxed{}, n: n} }

// val returns the entry as a value, boxing an unboxed integer.
func (s slot) val() value.V {
	if _, ok := s.v.(unboxed); ok {
		return value.IntV(s.n)
	}
	return s.v
}

// int reports the entry as a small integer: unboxed, or a boxed integer
// that fits an int64. A reference is not one — its callers dereference.
func (s slot) int() (int64, bool) {
	switch x := s.v.(type) {
	case unboxed:
		return s.n, true
	case value.Integer:
		return x.Int64()
	}
	return 0, false
}

// deref dereferences the entry, keeping an unboxed integer unboxed.
func (s slot) deref() slot { return slot{v: value.Deref(s.v), n: s.n} }

// auxCell is the per-frame state of one resumable instruction (the B
// operand names the cell). One flat struct serves every resumable opcode;
// which fields are live depends on the instruction kind.
type auxCell struct {
	barrier  int32       // OpMark/OpLimitBegin: choice-stack depth to cut back to
	count, n int32       // OpLimitBegin/OpLimitCheck: results so far, limit
	flag     bool        // OpRepAlt/OpRepNote: current |e cycle produced a value
	mode     int8        // OpBang/OpToBy: which fast path armed
	i0       int64       // OpBang: element index; OpToBy: current value
	i1, i2   int64       // OpToBy: hi, by
	v0       value.V     // OpBang: the promoted list/string; OpRevAssign/OpRevSwap: the (first) saved value
	g        core.Gen    // generic generator (OpBang mode 0, OpToBy, OpCall)
	proc     *value.Proc // OpCall: cached callee identity
	frame    *Frame      // OpCall: cached compiled child frame for this site
	args     []value.V   // OpCall/OpCallNative: argument scratch; OpRevAssign/OpSwap/OpRevSwap: the popped reference targets, then OpRevSwap's second saved value
	scan     *scanEnv    // OpScan*: the environment this site entered; nil outside it
}

// scanEnv is one entered scanning environment and the one that was current
// when it was entered (restored on the way out). A cell points to it so
// that the cells of the sites that never scan — nearly all — stay small:
// every frame pays for every cell's size.
type scanEnv struct {
	inner core.ScanState
	outer *core.ScanState
}

// Machine wraps one compiled unit with its frame pool. Pooled frames are
// only ever reused for the same code object, so slot and aux arrays (and
// the call-site caches inside aux) stay valid across recycles.
//
// A Machine also stands for a unit whose instructions were translated to
// Go (Emitted): its activations are values of the translated type, each
// embedding a Frame whose exported methods are the opcodes.
type Machine struct {
	code *compile.Code
	// subs are the Machines of the unit's create bodies (code.Subs).
	subs []*Machine
	// scanVars are the &subject and &pos variables over code.Scan.
	scanVars [2]*value.Var
	pool     sync.Pool
	// prof is the unit's lazily registered profile (profile.go); nil until
	// the first Next that runs with profiling enabled.
	prof atomic.Pointer[CodeProfile]
	// trace points at the procedure tracer its frames follow (Trace);
	// proc marks a procedure's unit, whose frames report to it.
	trace **core.Tracer
	proc  bool
}

// New builds a Machine for code, its activations plain frames.
func New(code *compile.Code) *Machine {
	subs := make([]*Machine, len(code.Subs))
	for i, sub := range code.Subs {
		subs[i] = New(sub)
	}
	return Emitted(code, func() (core.Gen, *Frame) { f := &Frame{}; return f, f }, subs...)
}

// Emitted builds the Machine of a translated unit: code carries the
// unit's layout, constants, globals and scanning context (its Instrs are
// the translated type's Next), alloc returns a new activation and the
// Frame it is the state of, and subs are the Machines of its create and
// <> bodies, in code.Subs order.
func Emitted(code *compile.Code, alloc func() (core.Gen, *Frame), subs ...*Machine) *Machine {
	m := &Machine{code: code, subs: subs}
	if code.Scan != nil {
		m.scanVars = [2]*value.Var{core.SubjectVar(code.Scan), core.PosVar(code.Scan)}
	}
	m.pool.New = func() any {
		g, f := alloc()
		// Slots and the operand stack's first entries share one array.
		n := len(code.Slots)
		buf := make([]slot, n+8)
		f.code, f.owner, f.self = code, m, g
		f.slots, f.st = buf[:n:n], buf[n:n]
		f.aux = make([]auxCell, code.NumAux)
		f.cp = make([]choice, 0, 8)
		return f
	}
	return m
}

// Call returns a new activation of the unit bound to args — a pooled
// frame, or for a translated unit a pooled value of its type. It is the
// body of the unit's procedure value.
func (m *Machine) Call(args ...value.V) core.Gen { return m.NewFrame(args...).self }

// instance is a create body's generator, its parameters bound from env:
// the cells themselves for a bare <> body, which shares them, and their
// current values otherwise.
func (m *Machine) instance(env []*value.Var) core.Gen {
	f := m.NewFrame()
	for _, cell := range env {
		if m.code.Shares {
			f.args = append(f.args, cell)
		} else {
			f.args = append(f.args, cell.Get())
		}
	}
	return f.self
}

// Code returns the compiled unit.
func (m *Machine) Code() *compile.Code { return m.code }

// Trace points the frames of the unit and of its create bodies at the
// procedure tracer *t (&trace). While *t is non-nil, the frames of a
// procedure compiled by CompileProc report to it what a traced procedure
// reports — the call when a run begins, each suspension, the return, the
// failure out of the procedure; an abandoned frame reports nothing — and
// a direct call (OpCall1) runs as a general one, so every callee is
// resumed, and reports, as on the tree walk.
func (m *Machine) Trace(t **core.Tracer) {
	m.trace = t
	for _, sub := range m.subs {
		sub.Trace(t)
	}
}

// NewFrame takes a frame from the pool and arms it with args. The frame is
// a core.Gen over the unit's result sequence.
func (m *Machine) NewFrame(args ...value.V) *Frame {
	f := m.pool.Get().(*Frame)
	f.args = append(f.args[:0], args...)
	f.started = false
	f.resumed = false
	f.suspendedAt = 0
	return f
}

// Frame is one resumable activation: the compiled unit's slots, operand
// stack, choice stack and program counter. It implements core.Gen.
type Frame struct {
	code    *compile.Code
	owner   *Machine
	pc      int32
	st      []slot   // operand stack
	slots   []slot   // parameters, locals, normal-form temporaries
	cp      []choice // choice points, innermost last
	aux     []auxCell
	args    []value.V // call arguments, bound to the leading slots on begin
	started bool      // a run is in progress (not yet exhausted)
	resumed bool      // control arrived at pc by failure, not fall-through
	// running is set for the duration of a Next dispatch: between calls the
	// frame is suspended and its state is a consistent continuation; during
	// a call it is mid-instruction and must not be captured (snapshot.go
	// refuses). A panic escaping Next leaves running set — correct, since
	// an abandoned mid-instruction frame is exactly what must not snapshot.
	running bool
	// suspendedAt is the UnixNano of the last profiled suspension (yield or
	// return); 0 when not suspended or profiling was off at the time.
	suspendedAt int64
	// self is the activation this is the state of: the frame itself, or
	// the translated type's value embedding it.
	self core.Gen
}

// begin (re)starts the frame: pc 0, empty stacks, slots nulled, parameters
// bound. Auto-restart means begin runs both on the first Next and on the
// first Next after exhaustion.
func (f *Frame) begin() {
	f.pc = 0
	f.st = f.st[:0]
	f.cp = f.cp[:0]
	f.resumed = false
	for i := range f.slots {
		f.slots[i] = slot{v: value.NullV}
	}
	n := f.code.Params
	if n > len(f.args) {
		n = len(f.args)
	}
	for i := 0; i < n; i++ {
		f.slots[i] = slot{v: value.Deref(f.args[i])}
	}
	if f.code.Boxes != nil {
		f.box()
	}
	f.started = true
	f.suspendedAt = 0
	if tr := f.reporter(); tr != nil {
		tr.Call(f.code.Name, f.args)
	}
}

// tracer is the procedure tracer the frame follows, nil when tracing is
// off.
func (f *Frame) tracer() *core.Tracer {
	if t := f.owner.trace; t != nil {
		return *t
	}
	return nil
}

// reporter is the tracer a procedure's frame reports to, nil when tracing
// is off or the unit is not a procedure.
func (f *Frame) reporter() *core.Tracer {
	if !f.owner.proc {
		return nil
	}
	return f.tracer()
}

// box puts a fresh cell in every boxed slot, holding the value begin
// bound there — except the parameters of a bare <> body, which are the
// creating frame's cells themselves.
func (f *Frame) box() {
	for i, boxed := range f.code.Boxes {
		if !boxed {
			continue
		}
		if f.code.Shares && i < f.code.Params && i < len(f.args) {
			f.slots[i] = slot{v: f.args[i]}
			continue
		}
		f.slots[i] = slot{v: value.NewCell(f.slots[i].v)}
	}
}

// cell returns the cell in boxed slot i.
func (f *Frame) cell(i int32) *value.Var { return f.slots[i].v.(*value.Var) }

// Fail backtracks to the most recent choice point, restoring its operand
// stack and re-entering its instruction with the resumed flag set. With no
// choice point left the frame is exhausted (and, per the generator
// contract, ready to restart).
func (f *Frame) Fail() bool {
	if len(f.cp) == 0 {
		f.started = false
		f.releaseChildren()
		return false
	}
	c := f.cp[len(f.cp)-1]
	f.cp = f.cp[:len(f.cp)-1]
	f.st = f.st[:c.sp]
	f.pc = c.pc
	f.resumed = true
	return true
}

// Restart resets the frame to re-produce its sequence (the calculus's ^
// operator); the bound arguments are kept.
func (f *Frame) Restart() {
	f.started = false
}

// ResetCall rebinds the frame to fresh arguments and restarts it — the
// call-site reuse path (OpCall): at most one child frame lives per site
// per parent frame, so an abandoned child is simply re-armed.
func (f *Frame) ResetCall(args []value.V) {
	f.args = append(f.args[:0], args...)
	f.started = false
}

// frame returns the frame; a translated type embedding one has it too,
// which is how a call site recognizes a child it can re-arm.
func (f *Frame) frame() *Frame { return f }

type framed interface{ frame() *Frame }

// Recycle clears the frame's value references and returns it to its
// Machine's pool. Only call when no live generator can reach the frame.
func (f *Frame) Recycle() {
	f.releaseChildren()
	f.st = f.st[:0]
	f.cp = f.cp[:0]
	clear(f.slots)
	f.args = f.args[:0]
	for i := range f.aux {
		a := &f.aux[i]
		a.v0, a.g, a.proc, a.scan = nil, nil, nil, nil
		a.args = a.args[:0]
	}
	f.started = false
	f.owner.pool.Put(f)
}

// releaseChildren recycles the child frames cached at the frame's call
// sites. It runs when the frame returns or is exhausted: its choice stack
// is empty then, so no site can resume its child, and a new call re-arms
// from the pool. Without it a child becomes garbage with its parent and
// every activation of a recursion allocates afresh.
func (f *Frame) releaseChildren() {
	for i := range f.aux {
		if a := &f.aux[i]; a.frame != nil {
			a.frame.Recycle()
			a.frame, a.proc, a.g = nil, nil, nil
		}
	}
}

// stack helpers — inlined by the compiler on the hot path.

func (f *Frame) push(v value.V) { f.st = append(f.st, slot{v: v}) }

func (f *Frame) pushSlot(s slot) { f.st = append(f.st, s) }

// pop removes the top entry and returns it as a value (boxed).
func (f *Frame) pop() value.V {
	v := f.st[len(f.st)-1]
	f.st = f.st[:len(f.st)-1]
	return v.val()
}

func (f *Frame) top() value.V { return f.st[len(f.st)-1].val() }
