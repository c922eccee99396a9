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

// ----- assignment targets, reversible assignment and exchange -----

// place is one resolved target operand (see compile.Target).
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

// popPlace resolves target operand t; a reference target is popped.
func (f *Frame) popPlace(t int32) place {
	kind, i := compile.SplitTarget(t)
	p := place{kind: kind, i: i}
	if kind == compile.TargetRef {
		p.ref = mustVar(f.pop())
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

// RevAssign executes x <- v at pc (aux b) on target operand t: store,
// then arm the undo choice point. Its resumption restores the old value
// and keeps failing into the source — also when the source has no more
// results, as revAssignGen does.
func (f *Frame) RevAssign(t, b, pc int32) bool {
	a := &f.aux[b]
	next := 0
	if f.resumed {
		f.resumed = false
		f.store(mkPlace(t, a.args, &next), a.v0)
		a.v0 = nil
		return false
	}
	v := value.Deref(f.pop())
	f.popRefs(a, compile.TargetRefs(t))
	p := mkPlace(t, a.args, &next)
	a.v0 = f.load(p)
	f.store(p, v)
	f.cp = append(f.cp, choice{pc: pc, sp: int32(len(f.st))})
	f.push(v)
	return true
}

// Swap executes x :=: y on target operands l and r (aux b) and, with undo
// set, x <-> y at pc, whose resumption restores both saved values (not a
// second exchange: either side may have been assigned in between) and
// fails.
func (f *Frame) Swap(l, b, r, pc int32, undo bool) bool {
	a := &f.aux[b]
	next := 0
	if f.resumed {
		f.resumed = false
		f.store(mkPlace(l, a.args, &next), a.v0)
		f.store(mkPlace(r, a.args, &next), a.args[len(a.args)-1])
		a.v0 = nil
		return false
	}
	f.popRefs(a, compile.TargetRefs(l, r))
	lp := mkPlace(l, a.args, &next)
	rp := mkPlace(r, a.args, &next)
	lv, rv := f.load(lp), f.load(rp)
	f.store(lp, rv)
	f.store(rp, lv)
	if undo {
		a.v0, a.args = lv, append(a.args, rv)
		f.cp = append(f.cp, choice{pc: pc, sp: int32(len(f.st))})
	}
	f.push(rv)
	return true
}

// ----- co-expressions and pipes -----

// Create pops the n values captured for create body b and pushes, as
// mode says: a co-expression whose body is a frame of the nested unit —
// instantiated by coexpr over a fresh copy of those values on first
// activation and on every refresh — that co-expression behind a pipe
// provisioned as the site says, or, for a bare <>, a first-class generator
// over the popped cells themselves.
func (f *Frame) Create(n, b, mode int32) {
	base := len(f.st) - int(n)
	sub := f.owner.subs[b]
	if mode == compile.CreateFirstClass {
		cells := make([]*value.Var, n)
		for i, s := range f.st[base:] {
			cells[i] = s.v.(*value.Var)
		}
		f.st = f.st[:base]
		f.push(core.NewFirstClass(sub.instance(cells)))
		return
	}
	locals := make([]value.V, n)
	for i, s := range f.st[base:] {
		locals[i] = s.val()
	}
	co := coexpr.New(locals, sub.instance)
	f.st = f.st[:base]
	switch {
	case mode == 0:
		f.push(co)
	case mode == compile.PipeInline:
		f.push(pipe.NewInline(co))
	default:
		buffer := int(mode)
		if mode == compile.PipeDefault {
			buffer = pipe.DefaultBuffer
		}
		p := pipe.New(co, buffer)
		p.StartEager()
		f.push(p)
	}
}

// ----- string scanning -----

// ScanBegin makes a fresh environment over the popped subject current
// (aux b). Armed (arm = 1), its choice point at pc leaves the environment
// when the body is spent and fails on into the subject.
func (f *Frame) ScanBegin(arm, b, pc int32) bool {
	a := &f.aux[b]
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
	if arm != 0 {
		f.cp = append(f.cp, choice{pc: pc, sp: int32(len(f.st))})
	}
	return true
}

// ScanEnd follows a result of the scanning body (aux b): the outer
// environment rules until the body is resumed at pc — then its own is
// current again, with whatever is current at that moment as its outer.
func (f *Frame) ScanEnd(b, pc int32) bool {
	a := &f.aux[b]
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
	f.cp = append(f.cp, choice{pc: pc, sp: int32(len(f.st)) - 1})
	return true
}
