package vm

import (
	"junicon/internal/coexpr"
	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/pipe"
	"junicon/internal/value"
)

// This file executes the opcodes whose state outlives one pass over an
// expression: reversible assignment and exchange (an undo record in the
// site's aux cell behind a choice point), co-expression and pipe creation
// (a nested Machine's frame owned by the created value) and string
// scanning (the environment pair in the site's aux cell, swapped on the
// code's ScanHolder where core.scanGen and interp.execScan swap it).

// ----- reversible assignment and exchange -----

// place is one resolved target of OpRevAssign/OpSwap/OpRevSwap.
type place struct {
	kind int
	i    int32
	ref  *value.Var
}

// mkPlace resolves target operand t; a reference target is the next of refs.
func mkPlace(t int32, refs []value.V, next *int) place {
	kind, i := compile.SplitTarget(t)
	p := place{kind: kind, i: i}
	if kind == compile.TargetRef {
		p.ref = refs[*next].(*value.Var)
		*next++
	}
	return p
}

func (f *Frame) load(p place) value.V {
	switch p.kind {
	case compile.TargetSlot:
		return f.slots[p.i].val()
	case compile.TargetGlobal:
		return f.code.Globals[p.i].Get()
	}
	return p.ref.Get()
}

func (f *Frame) store(p place, v value.V) {
	switch p.kind {
	case compile.TargetSlot:
		f.slots[p.i] = slot{v: v}
	case compile.TargetGlobal:
		f.code.Globals[p.i].Set(v)
	default:
		p.ref.Set(v)
	}
}

// popRefs moves the top n stack entries — the reference targets, pushed
// in operand order and not dereferenced — into a.args, replacing what it
// held.
func (f *Frame) popRefs(a *auxCell, n int) {
	base := len(f.st) - n
	a.args = a.args[:0]
	for _, r := range f.st[base:] {
		a.args = append(a.args, mustVar(r.val()))
	}
	f.st = f.st[:base]
}

// revAssign executes x <- v: store, then arm the undo choice point. Its
// resumption restores the old value and keeps failing into the source —
// also when the source has no more results, as revAssignGen does.
func (f *Frame) revAssign(in compile.Instr) bool {
	a := &f.aux[in.B]
	next := 0
	if f.resumed {
		f.resumed = false
		f.store(mkPlace(in.A, a.args, &next), a.v0)
		a.v0 = nil
		return false
	}
	v := value.Deref(f.pop())
	f.popRefs(a, compile.TargetRefs(in.A))
	p := mkPlace(in.A, a.args, &next)
	a.v0 = f.load(p)
	f.store(p, v)
	f.cp = append(f.cp, choice{pc: f.pc, sp: int32(len(f.st))})
	f.push(v)
	f.pc++
	return true
}

// exchange executes x :=: y and, with undo set, x <-> y, whose resumption
// restores both saved values (not a second exchange: either side may have
// been assigned in between) and fails.
func (f *Frame) exchange(in compile.Instr, undo bool) bool {
	a := &f.aux[in.B]
	next := 0
	if f.resumed {
		f.resumed = false
		f.store(mkPlace(in.A, a.args, &next), a.v0)
		f.store(mkPlace(in.C, a.args, &next), a.args[len(a.args)-1])
		a.v0 = nil
		return false
	}
	f.popRefs(a, compile.TargetRefs(in.A, in.C))
	l := mkPlace(in.A, a.args, &next)
	r := mkPlace(in.C, a.args, &next)
	lv, rv := f.load(l), f.load(r)
	f.store(l, rv)
	f.store(r, lv)
	if undo {
		a.v0, a.args = lv, append(a.args, rv)
		f.cp = append(f.cp, choice{pc: f.pc, sp: int32(len(f.st))})
	}
	f.push(rv)
	f.pc++
	return true
}

// ----- co-expressions and pipes -----

// create executes OpCreate: copy the captured values into a co-expression
// whose body is a frame of the nested unit — instantiated by coexpr over
// a fresh copy of those values on first activation and on every refresh —
// and, for |>, put it behind a pipe provisioned as the site says.
func (f *Frame) create(in compile.Instr) {
	n := int(in.A)
	base := len(f.st) - n
	sub := f.owner.subs[in.B]
	locals := make([]value.V, n)
	for i, s := range f.st[base:] {
		locals[i] = s.val()
	}
	co := coexpr.New(locals, func(env []*value.Var) core.Gen {
		fr := sub.NewFrame()
		for _, cell := range env {
			fr.args = append(fr.args, cell.Get())
		}
		return fr
	})
	f.st = f.st[:base]
	switch {
	case in.C == 0:
		f.push(co)
	case in.C == compile.PipeInline:
		f.push(pipe.NewInline(co))
	default:
		buffer := int(in.C)
		if in.C == compile.PipeDefault {
			buffer = pipe.DefaultBuffer
		}
		p := pipe.New(co, buffer)
		p.StartEager()
		f.push(p)
	}
	f.pc++
}

// ----- string scanning -----

// scanBegin executes OpScanBegin: a fresh environment over the popped
// subject becomes current. Armed (A = 1), its choice point leaves the
// environment when the body is spent and fails on into the subject.
func (f *Frame) scanBegin(in compile.Instr) bool {
	a := &f.aux[in.B]
	h := f.code.Scan
	if f.resumed {
		f.resumed = false
		h.Swap(a.scan.outer)
		a.scan = nil
		return false
	}
	sv := value.Deref(f.pop())
	s, ok := value.ToString(sv)
	if !ok {
		value.Raise(value.ErrString, "?: string subject expected", sv)
	}
	a.scan = &scanEnv{inner: core.ScanState{Subject: string(s), Pos: 1}}
	a.scan.outer = h.Swap(&a.scan.inner)
	if in.A != 0 {
		f.cp = append(f.cp, choice{pc: f.pc, sp: int32(len(f.st))})
	}
	f.pc++
	return true
}

// scanEnd executes OpScanEnd: the body produced a result, so the outer
// environment rules until the body is resumed — then its own is current
// again, with whatever is current at that moment as its outer.
func (f *Frame) scanEnd(in compile.Instr) bool {
	a := &f.aux[in.B]
	h := f.code.Scan
	if f.resumed {
		f.resumed = false
		a.scan.outer = h.Swap(&a.scan.inner)
		return false
	}
	// Dereference inside the environment: &subject and &pos must be read
	// before the swap-out makes them read another scan.
	f.st[len(f.st)-1] = f.st[len(f.st)-1].deref()
	h.Swap(a.scan.outer)
	f.cp = append(f.cp, choice{pc: f.pc, sp: int32(len(f.st)) - 1})
	f.pc++
	return true
}
