package vm

import (
	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/value"
)

// The opcodes, one exported method of Frame each. The dispatch loop
// (exec.go) decodes an instruction and calls its method; a unit
// translated to Go (internal/translate) embeds a Frame and calls the same
// methods with the operands spelled out, switching on the pc only where
// control flow joins. Either way an opcode has one implementation.
//
// Conventions: A, B and C are the instruction's operands (b names an aux
// cell, pc the instruction's own pc where it arms a choice point). A
// method reporting false has failed: the caller backtracks with Fail.
// Mark and Fork report true when the frame re-entered them by failure:
// the caller continues at the handler. The pc advances in the caller.

// Enter (re)starts the frame when it is not running a sequence (the
// auto-restart of Next).
func (f *Frame) Enter() {
	if !f.started {
		f.begin()
	}
}

// PC is the instruction execution continues at.
func (f *Frame) PC() int32 { return f.pc }

// Goto continues execution at pc.
func (f *Frame) Goto(pc int32) { f.pc = pc }

// ----- values and slots -----

// Const pushes Consts[a].
func (f *Frame) Const(a int32) { f.push(f.code.Consts[a]) }

// Null pushes &null.
func (f *Frame) Null() { f.push(value.NullV) }

// Pop discards the top of stack.
func (f *Frame) Pop() { f.st = f.st[:len(f.st)-1] }

// PopN discards the top n entries.
func (f *Frame) PopN(n int32) { f.st = f.st[:len(f.st)-int(n)] }

// LoadSlot pushes slot a.
func (f *Frame) LoadSlot(a int32) { f.pushSlot(f.slots[a]) }

// StoreSlot stores the dereferenced top into slot a, replacing the top by
// the stored value.
func (f *Frame) StoreSlot(a int32) {
	v := f.st[len(f.st)-1].deref()
	f.slots[a] = v
	f.st[len(f.st)-1] = v
}

// BindSlot stores the dereferenced top into slot a, keeping the top.
func (f *Frame) BindSlot(a int32) { f.slots[a] = f.st[len(f.st)-1].deref() }

// LoadGlobal pushes the value of Globals[a].
func (f *Frame) LoadGlobal(a int32) { f.push(f.code.Globals[a].Get()) }

// StoreGlobal stores the dereferenced top into Globals[a], replacing the
// top by the stored value.
func (f *Frame) StoreGlobal(a int32) {
	v := value.Deref(f.top())
	f.code.Globals[a].Set(v)
	f.st[len(f.st)-1] = slot{v: v}
}

// LoadBox pushes the value of the cell in boxed slot a.
func (f *Frame) LoadBox(a int32) { f.push(f.cell(a).Get()) }

// StoreBox stores the dereferenced top into the cell in slot a; keep = 0
// replaces the top by the stored value, as StoreSlot does, and keep = 1
// leaves it, as BindSlot does.
func (f *Frame) StoreBox(a, keep int32) {
	v := value.Deref(f.top())
	f.cell(a).Set(v)
	if keep == 0 {
		f.st[len(f.st)-1] = slot{v: v}
	}
}

// BoxVar pushes the cell in boxed slot a itself.
func (f *Frame) BoxVar(a int32) { f.push(f.cell(a)) }

// GlobalVar pushes the cell Globals[a] itself.
func (f *Frame) GlobalVar(a int32) { f.push(f.code.Globals[a]) }

// ----- control -----

// Yield pops and emits the top, dereferenced; resumption continues at
// next.
func (f *Frame) Yield(next int32) (value.V, bool) {
	f.pc = next
	return value.Deref(f.pop()), true
}

// Return is Yield after discarding every choice point: resumption (at
// next) can only fail the frame.
func (f *Frame) Return(next int32) (value.V, bool) {
	f.cp = f.cp[:0]
	f.releaseChildren()
	return f.Yield(next)
}

// ReturnFail discards every choice point and fails the frame.
func (f *Frame) ReturnFail() (value.V, bool) {
	f.cp = f.cp[:0]
	f.started = false
	f.releaseChildren()
	if tr := f.reporter(); tr != nil {
		tr.Fail(f.code.Name)
	}
	return nil, false
}

// Mark arms a failure handler at pc, recording the barrier in aux b.
func (f *Frame) Mark(b, pc int32) (resumed bool) {
	if f.resumed {
		f.resumed = false
		return true
	}
	f.aux[b].barrier = int32(len(f.cp))
	f.cp = append(f.cp, choice{pc: pc, sp: int32(len(f.st))})
	return false
}

// Cut drops the choice points above aux b's barrier.
func (f *Frame) Cut(b int32) { f.cp = f.cp[:f.aux[b].barrier] }

// Fork arms alternation's choice point at pc.
func (f *Frame) Fork(pc int32) (resumed bool) {
	if f.resumed {
		f.resumed = false
		return true
	}
	f.cp = append(f.cp, choice{pc: pc, sp: int32(len(f.st))})
	return false
}

// RepAlt heads a |e cycle at pc (aux b); re-entered after a cycle that
// produced nothing, |e itself is exhausted.
func (f *Frame) RepAlt(b, pc int32) bool {
	a := &f.aux[b]
	if f.resumed {
		f.resumed = false
		if !a.flag {
			return false
		}
	}
	a.flag = false
	f.cp = append(f.cp, choice{pc: pc, sp: int32(len(f.st))})
	return true
}

// RepNote records that the current |e cycle produced a value.
func (f *Frame) RepNote(b int32) { f.aux[b].flag = true }

// LimitBegin pops the limit of e \ n into aux b; a limit of zero or less
// fails.
func (f *Frame) LimitBegin(b int32) bool {
	n := value.MustInt(value.Deref(f.pop()))
	if n <= 0 {
		return false
	}
	a := &f.aux[b]
	a.n = int32(n)
	a.count = 0
	a.barrier = int32(len(f.cp))
	return true
}

// LimitCheck counts one result; at the nth it cuts e's choice points so
// e cannot be resumed past the limit (failure falls through to the
// count's own sequence, which restarts e — limitGen's restart-on-limit
// behavior).
func (f *Frame) LimitCheck(b int32) {
	a := &f.aux[b]
	a.count++
	if a.count >= a.n {
		f.cp = f.cp[:a.barrier]
	}
}

// InitOnce reports whether this is the first invocation past the guard
// Globals[c], setting it. The guard is a private static cell: null until
// the first invocation passes here, so snapshots carry it like any other.
func (f *Frame) InitOnce(c int32) (first bool) {
	guard := f.code.Globals[c]
	if !value.IsNull(guard.Get()) {
		return false
	}
	guard.Set(value.IntV(1))
	return true
}

// ----- operators -----

// Arith pops b and a and pushes arith[op](a, b), unboxed while both are
// small integers and the result is exact.
func (f *Frame) Arith(op int32) {
	n := len(f.st)
	if r, ok := arithInt(op, f.st[n-2], f.st[n-1]); ok {
		f.st[n-2] = intSlot(r)
		f.st = f.st[:n-1]
		return
	}
	f.arith(op)
}

// arith is Arith past its int64 fast path: the kernel operator.
func (f *Frame) arith(op int32) {
	b := value.Deref(f.pop())
	a := value.Deref(f.pop())
	f.push(compile.ArithFns[op](a, b))
}

// Cmp pops b and a and pushes cmp[op](a, b), or fails.
func (f *Frame) Cmp(op int32) bool {
	n := len(f.st)
	if holds, ok := cmpInt(op, f.st[n-2], f.st[n-1]); ok {
		if !holds {
			return false
		}
		f.st[n-2] = f.st[n-1]
		f.st = f.st[:n-1]
		return true
	}
	return f.cmp(op)
}

// cmp is Cmp past its int64 fast path: the kernel comparison.
func (f *Frame) cmp(op int32) bool {
	b := value.Deref(f.pop())
	a := value.Deref(f.pop())
	v, ok := compile.CmpFns[op](a, b)
	if !ok {
		return false
	}
	f.push(v)
	return true
}

// CmpTest pops b and a and fails unless cmp[op](a, b) holds; it pushes
// nothing (compile.OpCmpTest: the result was only ever popped).
func (f *Frame) CmpTest(op int32) bool {
	n := len(f.st)
	if holds, ok := cmpTestInt(op, f.st[n-2], f.st[n-1]); ok {
		f.st = f.st[:n-2]
		return holds
	}
	return f.cmpTest(op)
}

// cmpTest is CmpTest past its int64 fast path: the kernel comparison,
// its result dropped.
func (f *Frame) cmpTest(op int32) bool {
	b := value.Deref(f.pop())
	a := value.Deref(f.pop())
	_, ok := compile.CmpFns[op](a, b)
	return ok
}

// Raise raises error code with the message Consts[msg] (compile.OpRaise).
func (f *Frame) Raise(code, msg int32) {
	value.Raise(int(code), string(f.code.Consts[msg].(value.String)), nil)
}

// Unary replaces the top a by unary[op](a).
func (f *Frame) Unary(op int32) { f.push(compile.UnaryFns[op](value.Deref(f.pop()))) }

// NullTest is /x: the top becomes &null when it is null, else fails.
func (f *Frame) NullTest() bool {
	if !value.IsNull(value.Deref(f.st[len(f.st)-1].v)) {
		return false
	}
	f.st[len(f.st)-1] = slot{v: value.NullV}
	return true
}

// NonNullTest is \x: fails when the top is null, else dereferences it.
func (f *Frame) NonNullTest() bool {
	v := f.st[len(f.st)-1].deref()
	if value.IsNull(v.v) {
		return false
	}
	f.st[len(f.st)-1] = v
	return true
}

// Random is ?x: the top becomes a random element of it, drawn from the
// process's random stream (no frame state), or fails when it has none.
func (f *Frame) Random() bool {
	v, ok := core.RandomElement(f.pop())
	if !ok {
		return false
	}
	f.push(v)
	return true
}

// CaseEq pops v and continues when it is equivalent to slot a.
func (f *Frame) CaseEq(a int32) bool {
	return value.Equiv(f.slots[a].val(), value.Deref(f.pop()))
}

// ----- structures -----

// MakeList pops n values and pushes a fresh list of them: resuming a
// list-forming expression must not alias earlier yields (ListOf builds
// anew per cycle).
func (f *Frame) MakeList(n int32) {
	base := len(f.st) - int(n)
	elems := make([]value.V, n)
	for i := range elems {
		elems[i] = value.Deref(f.st[base+i].val())
	}
	f.st = f.st[:base]
	f.push(value.NewListOf(elems))
}

// Index pops i and x and pushes the reference x[i], or fails.
func (f *Frame) Index() bool {
	i := value.Deref(f.pop())
	x := value.Deref(f.pop())
	v, ok := value.Subscript(x, i)
	if !ok {
		return false
	}
	f.push(v)
	return true
}

// Section pops j, i and x and pushes x[i:j], or fails.
func (f *Frame) Section() bool {
	j := value.Deref(f.pop())
	i := value.Deref(f.pop())
	x := value.Deref(f.pop())
	v, ok := value.Section(x, i, j)
	if !ok {
		return false
	}
	f.push(v)
	return true
}

// Field pops x and pushes the reference x.name, name being Consts[a]; a
// missing field raises.
func (f *Frame) Field(a int32) {
	x := value.Deref(f.pop())
	name := string(f.code.Consts[a].(value.String))
	v, ok := value.Field(x, name)
	if !ok {
		value.Raise(value.ErrField, "missing field "+name, x)
	}
	f.push(v)
}

// StoreVar pops v and the variable t, assigns, and pushes the value.
func (f *Frame) StoreVar() {
	v := value.Deref(f.pop())
	t := mustVar(f.pop())
	t.Set(v)
	f.push(t.Get()) // what the variable holds: &pos := 0 sets a position
}

// Aug replaces the top v — and below it the variable of a reference
// target — by target t := arith[op](t, v); the target is read when the
// operation applies, per source value.
func (f *Frame) Aug(t, op int32) {
	n := len(f.st)
	if kind, i := compile.SplitTarget(t); kind == compile.TargetSlot {
		if r, ok := arithInt(op, f.slots[i], f.st[n-1]); ok {
			f.slots[i] = intSlot(r)
			f.st[n-1] = intSlot(r)
			return
		}
	}
	v := f.st[n-1].deref()
	f.st = f.st[:n-1]
	p := f.popPlace(t)
	cur := f.load(p)
	var r value.V
	if x, ok := arithInt(op, slot{v: cur}, v); ok {
		r = value.IntV(x) // the operand stays unboxed; only the result leaves
	} else {
		r = compile.ArithFns[op](cur, v.val())
	}
	f.store(p, r)
	f.push(f.load(p))
}

// CmpAug is Aug for a conditional operator, failing when it does.
func (f *Frame) CmpAug(t, op int32) bool {
	n := len(f.st)
	if kind, i := compile.SplitTarget(t); kind == compile.TargetSlot {
		if holds, ok := cmpInt(op, f.slots[i], f.st[n-1]); ok {
			if holds {
				f.slots[i] = f.st[n-1]
			}
			return holds
		}
	}
	v := value.Deref(f.pop())
	p := f.popPlace(t)
	r, ok := compile.CmpFns[op](f.load(p), v)
	if !ok {
		return false
	}
	f.store(p, r)
	f.push(f.load(p))
	return true
}

// ----- invocation -----

// Call invokes the callee under its n arguments at pc (aux b), pushing
// each of its results behind a choice point that resumes it.
func (f *Frame) Call(n, b, pc int32) bool {
	a := &f.aux[b]
	if f.resumed {
		f.resumed = false
	} else {
		f.armCall(a, int(n))
	}
	v, ok := a.g.Next()
	if !ok {
		return false
	}
	f.cp = append(f.cp, choice{pc: pc, sp: int32(len(f.st))})
	f.push(v)
	return true
}

// Call1 is a facts-proven direct call: at most one result, no effects to
// re-run — no choice point, no resume bookkeeping.
func (f *Frame) Call1(n, b int32) bool {
	a := &f.aux[b]
	f.armCall(a, int(n))
	v, ok := a.g.Next()
	if !ok {
		return false
	}
	f.push(v)
	return true
}

// CallNative calls native Consts[c] on its n arguments (aux b): one
// result, or failure on nil.
func (f *Frame) CallNative(n, b, c int32) bool {
	a := &f.aux[b]
	base := len(f.st) - int(n)
	a.args = a.args[:0]
	for i := base; i < len(f.st); i++ {
		a.args = append(a.args, value.Deref(f.st[i].val()))
	}
	f.st = f.st[:base]
	native := f.code.Consts[c].(*value.Native)
	v, err := native.Fn(a.args...)
	if err != nil {
		value.Raise(value.ErrProcedure, "native "+native.Name+": "+err.Error(), nil)
	}
	if v == nil {
		return false
	}
	f.push(v)
	return true
}

// Activate pops a co-expression (and, with transmit = 1, the value sent
// into it) and pushes its next result, or fails.
func (f *Frame) Activate(transmit int32) bool {
	c := f.pop()
	var sent value.V = value.NullV
	if transmit != 0 {
		sent = value.Deref(f.pop())
	}
	v, ok := core.Step(c, sent)
	if !ok {
		return false
	}
	f.push(v)
	return true
}

// ----- string scanning -----

// ScanLeave leaves aux b's environment: mode LeaveForGood, or
// LeaveToResume (dereferencing the top first) around a yield or return.
func (f *Frame) ScanLeave(mode, b int32) {
	a := &f.aux[b]
	if mode == compile.LeaveToResume {
		f.st[len(f.st)-1] = f.st[len(f.st)-1].deref()
	}
	f.code.Scan.Swap(a.scan.outer)
	if mode == compile.LeaveForGood {
		a.scan = nil
	}
}

// ScanResume re-enters after a yield: the outermost cell a takes the
// current environment as outer, the innermost b's becomes current.
func (f *Frame) ScanResume(a, b int32) {
	f.aux[a].scan.outer = f.code.Scan.Swap(&f.aux[b].scan.inner)
}

// ScanVar pushes the &subject (a = 0) or &pos (a = 1) variable.
func (f *Frame) ScanVar(a int32) { f.push(f.owner.scanVars[a]) }
