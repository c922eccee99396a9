package vm

import (
	"fmt"
	"math"
	"time"

	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/value"
)

// Bang fast-path modes (auxCell.mode).
const (
	bangList   = 1 // elements of a list by index, length re-checked live
	bangString = 2 // one-character substrings by byte index
	bangGen    = 3 // generic: core.PromoteVal generator
)

// ToBy fast-path modes.
const (
	tobyInt = 1 // unboxed int64 arithmetic, the counter pushed unboxed
	tobyGen = 2 // generic: core.Range generator
)

// Next produces the frame's next value. The loop executes instructions
// until one of them suspends (OpYield/OpReturn) or the frame fails with no
// choice point left. Resumption re-enters here: after a yield, execution
// continues at the saved pc; after exhaustion, begin() re-arms the frame
// (auto-restart). The running flag brackets the dispatch so Capture can
// refuse a frame that is mid-instruction — two plain bool stores, nothing
// on the per-instruction path.
func (f *Frame) Next() (value.V, bool) {
	f.running = true
	v, ok := f.next()
	f.running = false
	return v, ok
}

// next is the dispatch loop. Every opcode's semantics is one method of
// Frame (ops.go); a unit translated to Go calls the same methods from its
// own Next, which switches on the pc instead of decoding instructions.
// The loop calls them too, except that it spells out the few hot ones the
// Go inliner will not take — slot stores, yields and the int64 fast paths
// of the operators — exactly as their methods do, and a compiled
// procedure's yields and returns report to its tracer (Trace).
func (f *Frame) next() (value.V, bool) {
	// Profiling is decided once per Next — one atomic load, mirroring the
	// telemetry gate. An unprofiled call carries prof == nil and each
	// instruction pays a single local nil test.
	var prof *CodeProfile
	if profOn.Load() {
		prof = f.owner.profile()
		if f.started {
			f.noteResume(prof)
		}
	}
	if !f.started {
		f.begin()
		if prof != nil {
			prof.calls.Add(1)
		}
	}
	code := f.code
	for {
		in := code.Instrs[f.pc]
		if prof != nil {
			prof.ops[in.Op].Add(1)
		}
		switch in.Op {

		// ----- values and slots -----
		case compile.OpNop:
		case compile.OpConst:
			f.Const(in.A)
		case compile.OpNull:
			f.Null()
		case compile.OpPop:
			f.Pop()
		case compile.OpPopN:
			f.PopN(in.A)
		case compile.OpLoadSlot:
			f.LoadSlot(in.A)
		case compile.OpStoreSlot:
			v := f.st[len(f.st)-1].deref()
			f.slots[in.A] = v
			f.st[len(f.st)-1] = v
		case compile.OpBindSlot:
			f.slots[in.A] = f.st[len(f.st)-1].deref()
		case compile.OpLoadGlobal:
			f.LoadGlobal(in.A)
		case compile.OpStoreGlobal:
			f.StoreGlobal(in.A)
		case compile.OpLoadBox:
			f.LoadBox(in.A)
		case compile.OpStoreBox:
			f.StoreBox(in.A, in.B)
		case compile.OpBoxVar:
			f.BoxVar(in.A)
		case compile.OpGlobalVar:
			f.GlobalVar(in.A)

		// ----- control -----
		case compile.OpJump:
			f.pc = in.A
			continue
		case compile.OpFail:
			goto fail
		case compile.OpYield, compile.OpReturn:
			if in.Op == compile.OpReturn {
				f.cp = f.cp[:0]
				f.releaseChildren()
			}
			v := value.Deref(f.pop())
			f.pc++
			if prof != nil {
				prof.yields.Add(1)
				f.suspendedAt = time.Now().UnixNano()
			}
			if tr := f.reporter(); tr != nil {
				if in.Op == compile.OpReturn {
					tr.Return(f.code.Name, v)
				} else {
					tr.Suspend(f.code.Name, v)
				}
			}
			return v, true
		case compile.OpReturnFail:
			return f.ReturnFail()
		case compile.OpMark:
			if f.Mark(in.B, f.pc) {
				f.pc = in.A
				continue
			}
		case compile.OpCut:
			f.Cut(in.B)
		case compile.OpFork:
			if f.Fork(f.pc) {
				f.pc = in.A
				continue
			}
		case compile.OpRepAlt:
			if !f.RepAlt(in.B, f.pc) {
				goto fail
			}
		case compile.OpRepNote:
			f.RepNote(in.B)
		case compile.OpLimitBegin:
			if !f.LimitBegin(in.B) {
				goto fail
			}
		case compile.OpLimitCheck:
			f.LimitCheck(in.B)
		case compile.OpInitOnce:
			if !f.InitOnce(in.C) {
				f.pc = in.A
				continue
			}

		// ----- operators -----
		case compile.OpArith:
			n := len(f.st)
			if r, fast := arithInt(in.A, f.st[n-2], f.st[n-1]); fast {
				f.st[n-2] = intSlot(r)
				f.st = f.st[:n-1]
			} else {
				f.arith(in.A)
			}
		case compile.OpCmp:
			n := len(f.st)
			if holds, fast := cmpInt(in.A, f.st[n-2], f.st[n-1]); !fast {
				if !f.cmp(in.A) {
					goto fail
				}
			} else if !holds {
				goto fail
			} else {
				f.st[n-2] = f.st[n-1]
				f.st = f.st[:n-1]
			}
		case compile.OpCmpTest:
			if !f.CmpTest(in.A) {
				goto fail
			}
		case compile.OpRaise:
			f.Raise(in.A, in.C)
		case compile.OpUnary:
			f.Unary(in.A)
		case compile.OpNullTest:
			if !f.NullTest() {
				goto fail
			}
		case compile.OpNonNullTest:
			if !f.NonNullTest() {
				goto fail
			}
		case compile.OpRandom:
			if !f.Random() {
				goto fail
			}
		case compile.OpBang:
			if !f.Bang(in.B, f.pc, in.A != 0) {
				goto fail
			}
		case compile.OpToBy:
			if !f.ToBy(in.B, f.pc) {
				goto fail
			}
		case compile.OpCaseEq:
			if !f.CaseEq(in.A) {
				goto fail
			}

		// ----- structures -----
		case compile.OpMakeList:
			f.MakeList(in.A)
		case compile.OpIndex:
			if !f.Index() {
				goto fail
			}
		case compile.OpSection:
			if !f.Section() {
				goto fail
			}
		case compile.OpField:
			f.Field(in.A)
		case compile.OpStoreVar:
			f.StoreVar()
		case compile.OpAug:
			if kind, i := compile.SplitTarget(in.A); kind == compile.TargetSlot {
				n := len(f.st)
				if r, fast := arithInt(in.C, f.slots[i], f.st[n-1]); fast {
					f.slots[i] = intSlot(r)
					f.st[n-1] = intSlot(r)
					break
				}
			}
			f.Aug(in.A, in.C)
		case compile.OpCmpAug:
			if !f.CmpAug(in.A, in.C) {
				goto fail
			}
		case compile.OpRevAssign:
			if !f.RevAssign(in.A, in.B, f.pc) {
				goto fail
			}
		case compile.OpSwap, compile.OpRevSwap:
			if !f.Swap(in.A, in.B, in.C, f.pc, in.Op == compile.OpRevSwap) {
				goto fail
			}

		// ----- invocation -----
		case compile.OpCall:
			if !f.Call(in.A, in.B, f.pc) {
				goto fail
			}
		case compile.OpCall1:
			// Traced, a direct call is a general one: the caller resumes
			// the callee when it backtracks into it, and the callee
			// reports its failure then, as on the tree walk.
			if f.resumed || f.tracer() != nil {
				if !f.Call(in.A, in.B, f.pc) {
					goto fail
				}
			} else if !f.Call1(in.A, in.B) {
				goto fail
			}
		case compile.OpCallNative:
			if !f.CallNative(in.A, in.B, in.C) {
				goto fail
			}

		// ----- co-expressions and pipes -----
		case compile.OpCreate:
			f.Create(in.A, in.B, in.C)
		case compile.OpActivate:
			if !f.Activate(in.A) {
				goto fail
			}

		// ----- string scanning -----
		case compile.OpScanBegin:
			if !f.ScanBegin(in.A, in.B, f.pc) {
				goto fail
			}
		case compile.OpScanEnd:
			if !f.ScanEnd(in.B, f.pc) {
				goto fail
			}
		case compile.OpScanLeave:
			f.ScanLeave(in.A, in.B)
		case compile.OpScanResume:
			f.ScanResume(in.A, in.B)
		case compile.OpScanVar:
			f.ScanVar(in.A)

		default:
			panic(fmt.Sprintf("vm: bad opcode %d at pc %d", in.Op, f.pc))
		}
		f.pc++
		continue
	fail:
		if !f.Fail() {
			return nil, false
		}
	}
}

// armCall pops n arguments and the callee, binding a.g to the invocation's
// generator. A compiled callee reuses the frame cached at this site (one
// live child per site per parent frame — an abandoned child is fully reset
// by ResetCall, so stale state cannot leak).
func (f *Frame) armCall(a *auxCell, n int) {
	base := len(f.st) - n
	a.args = a.args[:0]
	for i := 0; i < n; i++ {
		a.args = append(a.args, value.Deref(f.st[base+i].val()))
	}
	f.st = f.st[:base]
	fv := value.Deref(f.pop())
	if p, ok := fv.(*value.Proc); ok && p == a.proc && a.frame != nil {
		a.frame.ResetCall(a.args)
		a.g = a.frame.self
		return
	}
	g := core.InvokeVal(fv, a.args...)
	a.g = g
	if child, ok2 := g.(framed); ok2 {
		if p, ok := fv.(*value.Proc); ok {
			a.proc, a.frame = p, child.frame()
		}
	}
}

// Bang arms (or resumes) the !x site at pc, with aux cell b, and pushes
// the next element, reporting false when the elements are spent. refs
// generates the updatable references of an assignment target instead.
//
// The list and string fast paths yield plain values where the tree walk's
// listBang yields updatable references. Inside compiled code the two are
// indistinguishable: every consumer (operators, yields, stores, argument
// passing) dereferences, and an assignment target asks for references
// (refs), so no plain value is ever assigned through — this is the same
// reasoning that licenses core.Elements on the kernel's internal drives.
func (f *Frame) Bang(b, pc int32, refs bool) bool {
	a := &f.aux[b]
	if f.resumed {
		f.resumed = false
	} else {
		v := value.Deref(f.pop())
		switch x := v.(type) {
		case *value.List:
			a.mode, a.i0, a.v0 = bangList, 0, v
		case value.String:
			a.mode, a.i0, a.v0 = bangString, 0, v
		case *value.Cset:
			a.mode, a.i0, a.v0 = bangString, 0, value.String(x.Members())
		default:
			a.mode, a.g = bangGen, core.PromoteVal(v)
		}
		if refs {
			a.mode, a.g = bangGen, core.PromoteVal(v)
		}
	}
	var v value.V
	switch a.mode {
	case bangList:
		// Length and element are re-read per result: the list may grow or
		// shrink between resumptions (listBang's live-indexing behavior).
		l := a.v0.(*value.List)
		a.i0++
		el, ok := l.At(int(a.i0))
		if !ok {
			return false
		}
		if el == nil {
			el = value.NullV
		}
		v = el
	case bangString:
		s := a.v0.(value.String)
		if int(a.i0) >= len(s) {
			return false
		}
		v = s[a.i0 : a.i0+1]
		a.i0++
	default:
		nv, ok := a.g.Next()
		if !ok {
			return false
		}
		v = nv
	}
	f.cp = append(f.cp, choice{pc: pc, sp: int32(len(f.st))})
	f.push(v)
	return true
}

// ToBy arms (or resumes) the to-by range at pc, with aux cell b, and
// pushes the next value. The
// unboxed path mirrors the kernel's intRangeGen (including its overflow
// guards); everything else — reals, big integers, a zero increment's
// divide-by-zero error — goes through core.Range so errors and edge cases
// are byte-identical to the tree walk.
func (f *Frame) ToBy(b, pc int32) bool {
	a := &f.aux[b]
	if f.resumed {
		f.resumed = false
	} else {
		n := len(f.st) - 3
		lo, hi, by := f.st[n], f.st[n+1], f.st[n+2]
		f.st = f.st[:n]
		if li, hi64, by64, ok := smallRange(lo, hi, by); ok {
			a.mode = tobyInt
			a.i0, a.i1, a.i2 = li-by64, hi64, by64
		} else {
			a.mode = tobyGen
			a.g = core.Range(value.Deref(lo.val()), value.Deref(hi.val()), value.Deref(by.val()))
		}
	}
	var v slot
	if a.mode == tobyInt {
		cur := a.i0 + a.i2
		if (a.i2 > 0 && cur > a.i1) || (a.i2 < 0 && cur < a.i1) {
			return false
		}
		a.i0 = cur
		v = intSlot(cur)
	} else {
		nv, ok := a.g.Next()
		if !ok {
			return false
		}
		v = slot{v: nv}
	}
	f.cp = append(f.cp, choice{pc: pc, sp: int32(len(f.st))})
	f.pushSlot(v)
	return true
}

// mustVar asserts an assignment target is an updatable reference (the
// kernel's mustVar: a plain value as lvalue is Icon error 205).
func mustVar(t value.V) *value.Var {
	v, ok := t.(*value.Var)
	if !ok {
		value.Raise(value.ErrIndex, "variable expected", t)
	}
	return v
}

// smallRange reports lo/hi/by as unboxed int64s safe for native stepping:
// all small integers, a non-zero increment, and no overflow possible at
// the endpoints (core.Range's own guard conditions).
func smallRange(lo, hi, by slot) (l, h, b int64, ok bool) {
	l, ok = lo.deref().int()
	if !ok {
		return
	}
	h, ok = hi.deref().int()
	if !ok {
		return
	}
	b, ok = by.deref().int()
	if !ok || b == 0 {
		return 0, 0, 0, false
	}
	ab := b
	if ab < 0 {
		ab = -ab
	}
	const maxInt64 = int64(^uint64(0) >> 1)
	minInt64 := -maxInt64 - 1
	if h > maxInt64-ab || h < minInt64+ab || l > maxInt64-ab || l < minInt64+ab {
		return 0, 0, 0, false
	}
	return l, h, b, true
}

// Operator indices of the int64 fast paths (compile.ArithNames and
// compile.CmpNames order).
const (
	opAdd, opSub, opMul, opDiv, opMod = 0, 1, 2, 3, 4
	opLt, opLe, opGt, opGe, opNe      = 0, 1, 2, 3, 4
	opStrEq, opStrNe                  = 9, 10
)

// arithInt computes a op b in int64 when both are small integers and the
// result is exact. Anything else — a real or string operand, overflow into
// a big integer, division or remainder by zero — reports false and the
// caller boxes and runs the kernel operator, so the fast path decides
// nothing the kernel would decide differently.
func arithInt(op int32, a, b slot) (int64, bool) {
	x, ok := a.int()
	if !ok {
		return 0, false
	}
	y, ok := b.int()
	if !ok {
		return 0, false
	}
	switch op {
	case opAdd:
		r := x + y
		return r, (x^r)&(y^r) >= 0
	case opSub:
		r := x - y
		return r, (x^y)&(x^r) >= 0
	case opMul:
		if x == 0 || y == 0 {
			return 0, true
		}
		r := x * y
		return r, r/y == x && !(x == math.MinInt64 && y == -1)
	case opDiv:
		if y == 0 || (x == math.MinInt64 && y == -1) {
			return 0, false
		}
		return x / y, true
	case opMod:
		if y == 0 || (x == math.MinInt64 && y == -1) {
			return 0, false
		}
		return x % y, true
	}
	return 0, false
}

// cmpInt decides a numeric comparison of two small integers: holds is its
// outcome, ok false when the caller must run the kernel comparison.
func cmpInt(op int32, a, b slot) (holds, ok bool) {
	if op > opNe {
		return false, false
	}
	x, ok := a.int()
	if !ok {
		return false, false
	}
	y, ok := b.int()
	if !ok {
		return false, false
	}
	switch op {
	case opLt:
		return x < y, true
	case opLe:
		return x <= y, true
	case opGt:
		return x > y, true
	case opGe:
		return x >= y, true
	}
	return x != y, true
}

// cmpTestInt is cmpInt for a comparison whose result nobody reads, which
// may also decide == and ~== on two small integers: their decimal images
// are equal exactly when the integers are.
func cmpTestInt(op int32, a, b slot) (holds, ok bool) {
	switch op {
	case opStrEq:
		holds, ok = cmpInt(opNe, a, b)
		return !holds, ok
	case opStrNe:
		op = opNe
	}
	return cmpInt(op, a, b)
}
