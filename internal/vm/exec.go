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
			f.pc++
		case compile.OpConst:
			f.push(code.Consts[in.A])
			f.pc++
		case compile.OpNull:
			f.push(value.NullV)
			f.pc++
		case compile.OpPop:
			f.st = f.st[:len(f.st)-1]
			f.pc++
		case compile.OpPopN:
			f.st = f.st[:len(f.st)-int(in.A)]
			f.pc++
		case compile.OpLoadSlot:
			f.pushSlot(f.slots[in.A])
			f.pc++
		case compile.OpStoreSlot:
			v := f.st[len(f.st)-1].deref()
			f.slots[in.A] = v
			f.st[len(f.st)-1] = v
			f.pc++
		case compile.OpBindSlot:
			f.slots[in.A] = f.st[len(f.st)-1].deref()
			f.pc++
		case compile.OpLoadGlobal:
			f.push(code.Globals[in.A].Get())
			f.pc++
		case compile.OpStoreGlobal:
			v := value.Deref(f.top())
			code.Globals[in.A].Set(v)
			f.st[len(f.st)-1] = slot{v: v}
			f.pc++

		// ----- control -----
		case compile.OpJump:
			f.pc = in.A
		case compile.OpFail:
			if !f.fail() {
				return nil, false
			}
		case compile.OpYield:
			v := value.Deref(f.pop())
			f.pc++
			if prof != nil {
				prof.yields.Add(1)
				f.suspendedAt = time.Now().UnixNano()
			}
			return v, true
		case compile.OpReturn:
			v := value.Deref(f.pop())
			f.cp = f.cp[:0]
			f.releaseChildren()
			f.pc++
			if prof != nil {
				prof.yields.Add(1)
				f.suspendedAt = time.Now().UnixNano()
			}
			return v, true
		case compile.OpReturnFail:
			f.cp = f.cp[:0]
			f.started = false
			f.releaseChildren()
			return nil, false
		case compile.OpMark:
			if f.resumed {
				f.resumed = false
				f.pc = in.A
				continue
			}
			f.aux[in.B].barrier = int32(len(f.cp))
			f.cp = append(f.cp, choice{pc: f.pc, sp: int32(len(f.st))})
			f.pc++
		case compile.OpCut:
			f.cp = f.cp[:f.aux[in.B].barrier]
			f.pc++
		case compile.OpFork:
			if f.resumed {
				f.resumed = false
				f.pc = in.A
				continue
			}
			f.cp = append(f.cp, choice{pc: f.pc, sp: int32(len(f.st))})
			f.pc++
		case compile.OpRepAlt:
			a := &f.aux[in.B]
			if f.resumed {
				f.resumed = false
				if !a.flag {
					// An empty cycle: |e itself is exhausted.
					if !f.fail() {
						return nil, false
					}
					continue
				}
			}
			a.flag = false
			f.cp = append(f.cp, choice{pc: f.pc, sp: int32(len(f.st))})
			f.pc++
		case compile.OpRepNote:
			f.aux[in.B].flag = true
			f.pc++
		case compile.OpLimitBegin:
			n := value.MustInt(value.Deref(f.pop()))
			if n <= 0 {
				if !f.fail() {
					return nil, false
				}
				continue
			}
			a := &f.aux[in.B]
			a.n = int32(n)
			a.count = 0
			a.barrier = int32(len(f.cp))
			f.pc++
		case compile.OpLimitCheck:
			a := &f.aux[in.B]
			a.count++
			if a.count >= a.n {
				// The nth result: cut e's choice points so it cannot be
				// resumed past the limit (failure falls through to the
				// count's own sequence, which restarts e — limitGen's
				// restart-on-limit behavior).
				f.cp = f.cp[:a.barrier]
			}
			f.pc++

		case compile.OpInitOnce:
			// The guard is a private static cell: null until the first
			// invocation passes here, so snapshots carry it like any other.
			if guard := code.Globals[in.C]; value.IsNull(guard.Get()) {
				guard.Set(value.IntV(1))
				f.pc++
			} else {
				f.pc = in.A
			}

		// ----- operators -----
		case compile.OpArith:
			n := len(f.st)
			if r, ok := arithInt(in.A, f.st[n-2], f.st[n-1]); ok {
				f.st[n-2] = intSlot(r)
				f.st = f.st[:n-1]
				f.pc++
				continue
			}
			b := value.Deref(f.pop())
			a := value.Deref(f.pop())
			f.push(compile.ArithFns[in.A](a, b))
			f.pc++
		case compile.OpCmp:
			n := len(f.st)
			if holds, ok := cmpInt(in.A, f.st[n-2], f.st[n-1]); ok {
				if !holds {
					if !f.fail() {
						return nil, false
					}
					continue
				}
				f.st[n-2] = f.st[n-1]
				f.st = f.st[:n-1]
				f.pc++
				continue
			}
			b := value.Deref(f.pop())
			a := value.Deref(f.pop())
			v, ok := compile.CmpFns[in.A](a, b)
			if !ok {
				if !f.fail() {
					return nil, false
				}
				continue
			}
			f.push(v)
			f.pc++
		case compile.OpUnary:
			f.push(compile.UnaryFns[in.A](value.Deref(f.pop())))
			f.pc++
		case compile.OpNullTest:
			if !value.IsNull(value.Deref(f.st[len(f.st)-1].v)) {
				if !f.fail() {
					return nil, false
				}
				continue
			}
			f.st[len(f.st)-1] = slot{v: value.NullV}
			f.pc++
		case compile.OpNonNullTest:
			v := f.st[len(f.st)-1].deref()
			if value.IsNull(v.v) {
				if !f.fail() {
					return nil, false
				}
				continue
			}
			f.st[len(f.st)-1] = v
			f.pc++
		case compile.OpBang:
			if !f.stepBang(&f.aux[in.B]) {
				if !f.fail() {
					return nil, false
				}
			}
		case compile.OpToBy:
			if !f.stepToBy(&f.aux[in.B]) {
				if !f.fail() {
					return nil, false
				}
			}
		case compile.OpCaseEq:
			v := value.Deref(f.pop())
			if !value.Equiv(f.slots[in.A].val(), v) {
				if !f.fail() {
					return nil, false
				}
				continue
			}
			f.pc++

		// ----- structures -----
		case compile.OpMakeList:
			n := int(in.A)
			base := len(f.st) - n
			elems := make([]value.V, n)
			for i := 0; i < n; i++ {
				elems[i] = value.Deref(f.st[base+i].val())
			}
			f.st = f.st[:base]
			// A fresh list per result: resuming a list-forming expression
			// must not alias earlier yields (ListOf builds anew per cycle).
			f.push(value.NewListOf(elems))
			f.pc++
		case compile.OpIndex, compile.OpIndexVar:
			i := value.Deref(f.pop())
			x := value.Deref(f.pop())
			v, ok := value.Subscript(x, i)
			if !ok {
				if !f.fail() {
					return nil, false
				}
				continue
			}
			f.push(v)
			f.pc++
		case compile.OpSection:
			j := value.Deref(f.pop())
			i := value.Deref(f.pop())
			x := value.Deref(f.pop())
			v, ok := value.Section(x, i, j)
			if !ok {
				if !f.fail() {
					return nil, false
				}
				continue
			}
			f.push(v)
			f.pc++
		case compile.OpField, compile.OpFieldVar:
			x := value.Deref(f.pop())
			name := string(code.Consts[in.A].(value.String))
			v, ok := value.Field(x, name)
			if !ok {
				value.Raise(value.ErrField, "missing field "+name, x)
			}
			f.push(v)
			f.pc++
		case compile.OpStoreVar:
			v := value.Deref(f.pop())
			t := mustVar(f.pop())
			t.Set(v)
			f.push(v)
			f.pc++
		case compile.OpAugVar:
			v := value.Deref(f.pop())
			t := mustVar(f.pop())
			r := compile.ArithFns[in.A](t.Get(), v)
			t.Set(r)
			f.push(r)
			f.pc++
		case compile.OpCmpAugVar:
			v := value.Deref(f.pop())
			t := mustVar(f.pop())
			r, ok2 := compile.CmpFns[in.A](t.Get(), v)
			if !ok2 {
				if !f.fail() {
					return nil, false
				}
				continue
			}
			t.Set(r)
			f.push(r)
			f.pc++
		case compile.OpAugSlot:
			n := len(f.st)
			if r, ok := arithInt(in.C, f.slots[in.A], f.st[n-1]); ok {
				f.slots[in.A] = intSlot(r)
				f.st[n-1] = intSlot(r)
				f.pc++
				continue
			}
			v := value.Deref(f.pop())
			r := compile.ArithFns[in.C](f.slots[in.A].val(), v)
			f.slots[in.A] = slot{v: r}
			f.push(r)
			f.pc++
		case compile.OpCmpAugSlot:
			n := len(f.st)
			if holds, ok := cmpInt(in.C, f.slots[in.A], f.st[n-1]); ok {
				if !holds {
					if !f.fail() {
						return nil, false
					}
					continue
				}
				f.slots[in.A] = f.st[n-1]
				f.pc++
				continue
			}
			v := value.Deref(f.pop())
			r, ok := compile.CmpFns[in.C](f.slots[in.A].val(), v)
			if !ok {
				if !f.fail() {
					return nil, false
				}
				continue
			}
			f.slots[in.A] = slot{v: r}
			f.push(r)
			f.pc++
		case compile.OpAugGlobal:
			cell := code.Globals[in.A]
			var r value.V
			if x, ok := arithInt(in.C, slot{v: cell.Get()}, f.st[len(f.st)-1]); ok {
				// The operand stays unboxed; only the result leaves.
				f.st = f.st[:len(f.st)-1]
				r = value.IntV(x)
			} else {
				v := value.Deref(f.pop())
				r = compile.ArithFns[in.C](cell.Get(), v)
			}
			cell.Set(r)
			f.push(r)
			f.pc++
		case compile.OpCmpAugGlobal:
			v := value.Deref(f.pop())
			cell := code.Globals[in.A]
			r, ok := compile.CmpFns[in.C](cell.Get(), v)
			if !ok {
				if !f.fail() {
					return nil, false
				}
				continue
			}
			cell.Set(r)
			f.push(r)
			f.pc++

		case compile.OpRevAssign:
			if !f.revAssign(in) {
				if !f.fail() {
					return nil, false
				}
			}
		case compile.OpSwap, compile.OpRevSwap:
			if !f.exchange(in, in.Op == compile.OpRevSwap) {
				if !f.fail() {
					return nil, false
				}
			}

		// ----- invocation -----
		case compile.OpCall:
			a := &f.aux[in.B]
			if f.resumed {
				f.resumed = false
			} else {
				f.armCall(a, int(in.A))
			}
			v, ok := a.g.Next()
			if !ok {
				if !f.fail() {
					return nil, false
				}
				continue
			}
			f.cp = append(f.cp, choice{pc: f.pc, sp: int32(len(f.st))})
			f.push(v)
			f.pc++
		case compile.OpCall1:
			// Facts-proven direct call: at most one result, no effects to
			// re-run — no choice point, no resume bookkeeping.
			a := &f.aux[in.B]
			f.armCall(a, int(in.A))
			v, ok := a.g.Next()
			if !ok {
				if !f.fail() {
					return nil, false
				}
				continue
			}
			f.push(v)
			f.pc++
		case compile.OpCallNative:
			a := &f.aux[in.B]
			n := int(in.A)
			base := len(f.st) - n
			a.args = a.args[:0]
			for i := 0; i < n; i++ {
				a.args = append(a.args, value.Deref(f.st[base+i].val()))
			}
			f.st = f.st[:base]
			native := code.Consts[in.C].(*value.Native)
			v, err := native.Fn(a.args...)
			if err != nil {
				value.Raise(value.ErrProcedure, "native "+native.Name+": "+err.Error(), nil)
			}
			if v == nil {
				if !f.fail() {
					return nil, false
				}
				continue
			}
			f.push(v)
			f.pc++

		// ----- co-expressions and pipes -----
		case compile.OpCreate:
			f.create(in)
		case compile.OpActivate:
			c := f.pop()
			var transmit value.V = value.NullV
			if in.A != 0 {
				transmit = value.Deref(f.pop())
			}
			v, ok := core.Step(c, transmit)
			if !ok {
				if !f.fail() {
					return nil, false
				}
				continue
			}
			f.push(v)
			f.pc++

		// ----- string scanning -----
		case compile.OpScanBegin:
			if !f.scanBegin(in) {
				if !f.fail() {
					return nil, false
				}
			}
		case compile.OpScanEnd:
			if !f.scanEnd(in) {
				if !f.fail() {
					return nil, false
				}
			}
		case compile.OpScanLeave:
			a := &f.aux[in.B]
			if in.A == compile.LeaveToResume {
				f.st[len(f.st)-1] = f.st[len(f.st)-1].deref()
			}
			code.Scan.Swap(a.scan.outer)
			if in.A == compile.LeaveForGood {
				a.scan = nil
			}
			f.pc++
		case compile.OpScanResume:
			f.aux[in.A].scan.outer = code.Scan.Swap(&f.aux[in.B].scan.inner)
			f.pc++
		case compile.OpScanVar:
			f.push(f.owner.scanVars[in.A])
			f.pc++

		default:
			panic(fmt.Sprintf("vm: bad opcode %d at pc %d", in.Op, f.pc))
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
		a.g = a.frame
		return
	}
	g := core.InvokeVal(fv, a.args...)
	a.g = g
	if child, ok2 := g.(*Frame); ok2 {
		if p, ok := fv.(*value.Proc); ok {
			a.proc, a.frame = p, child
		}
	}
}

// stepBang arms (or resumes) a !x site and pushes the next element,
// reporting false when the elements are spent.
//
// The list and string fast paths yield plain values where the tree walk's
// listBang yields updatable references. Inside compiled code the two are
// indistinguishable: every consumer (operators, yields, stores, argument
// passing) dereferences, and the compiler rejects !x as an assignment
// target, so no reference can escape — this is the same reasoning that
// licenses core.Elements on the kernel's internal drives.
func (f *Frame) stepBang(a *auxCell) bool {
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
	f.cp = append(f.cp, choice{pc: f.pc, sp: int32(len(f.st))})
	f.push(v)
	f.pc++
	return true
}

// stepToBy arms (or resumes) a to-by range and pushes the next value. The
// unboxed path mirrors the kernel's intRangeGen (including its overflow
// guards); everything else — reals, big integers, a zero increment's
// divide-by-zero error — goes through core.Range so errors and edge cases
// are byte-identical to the tree walk.
func (f *Frame) stepToBy(a *auxCell) bool {
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
	f.cp = append(f.cp, choice{pc: f.pc, sp: int32(len(f.st))})
	f.pushSlot(v)
	f.pc++
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
