package compile

import (
	"math/bits"
	"strings"
)

// This file is the pass that runs on every code object after lowering —
// Proc, Expr and each nested create body, through finish — so the vm,
// -dis, -emit, Fingerprint and snapshots all see one instruction stream.
// The one-pass lowering emits every step of a §5A normal form: a bounded
// context per statement even where nothing inside can fail, a temporary
// stored and at once reloaded, a comparison's result pushed only to be
// popped. The pass deletes that glue:
//
//  1. A mark … cut pair goes when its aux cell nothing else names (no
//     break or next cuts it) and everything between the two can neither
//     fail nor arm a choice point, is entered only by falling through and
//     leaves only by falling through or by a raise: its choice point can
//     never be taken. (A raise abandons the frame — nothing implements
//     &error, so it never turns into failure a choice point could catch.)
//     Pairs nested inside it go first, so one forward pass reaches the
//     fixpoint.
//  2. An instruction control cannot reach goes: nothing enters it, and
//     the one before it never falls through or goes too.
//  3. bind.slot X or store.slot X, pop, load.slot X on an unboxed slot is
//     store.slot X.
//  4. A const, null or load.slot followed by a pop, with only cuts
//     between, is never pushed; a jump to the next instruction goes.
//  5. cmp k, [cuts,] pop is cmp.test k, which pushes nothing.
//  6. The aux cells no instruction names any more are dropped and the
//     rest renumbered, so every frame shrinks.
//
// Rules 7 and 8 read one backward liveness analysis: the slots some path
// from a pc reads before storing them, over falling through, branch and
// mark targets, the pc after a yield, and from each instruction that may
// fail to every resume point. Boxed slots and a bare <> body's parameters
// are shared cells, always live.
//
//  7. A store.slot or bind.slot to a slot dead after it goes; a
//     store.slot, which also dereferences the top, only when the top is
//     plain or the next instruction, cuts aside, takes it as a value. A
//     pop that only a fail follows goes: the fail drops the value.
//  8. Two x_N temporaries never live at the same pc (nor stored while the
//     other is live, nor both live at pc 0) share a slot, named after
//     both (x_1/x_5); a slot nothing names goes.
//
// Only the first instruction of a rewritten window may be one control
// enters other than by falling through — a branch target, or the
// instruction after a yield or return — and the only resume points that
// go are the marks of rule 1 and the unreached ones of rule 2. A deleted
// instruction's edges enter the next survivor, and so does its count of
// them. Every target operand and Resumes pc is remapped. Rules 1–6 are
// linear in the code's length; the analysis is too, times the words of a
// slot set and the sweeps until nothing grows, and colouring is
// quadratic in the temporaries.

// countAux counts, per aux cell, the instructions that name it.
func countAux(ins []Instr, uses []int32) {
	clear(uses)
	for i := range ins {
		ins[i].eachAux(func(cell *int32) { uses[*cell]++ })
	}
}

// optimize runs the pass over one code object in place.
func optimize(code *Code) {
	ins := code.Instrs
	n := len(ins)
	// entered counts, per pc, the edges into it other than falling
	// through. A jump to the very next pc is dead from the start (rule 4),
	// so rule 1 sees through it.
	entered := make([]int32, n+1)
	dead := make([]bool, n)
	for pc, in := range ins {
		switch to, ok := in.Enters(pc); {
		case in.Op == OpJump && to == pc+1:
			dead[pc] = true
		case ok:
			entered[to]++
		}
	}
	uses := make([]int32, code.NumAux)
	countAux(ins, uses)

	// Rule 1. open holds the candidate marks whose cut is still ahead,
	// innermost last; dirty is the last pc that may fail, arms a choice
	// point, sends control elsewhere or is entered, so a pair is dead when dirty is at most its
	// mark. A nested pair that stays makes its cut dirty, covering it.
	var open []int32
	dirty := -1
	for pc, in := range ins {
		if entered[pc] > 0 {
			dirty = pc
		}
		switch {
		case dead[pc]:
		case in.Op == OpMark && uses[in.B] == 2:
			open = append(open, int32(pc))
		case in.Op == OpCut && uses[in.B] == 2 && len(open) > 0 && ins[open[len(open)-1]].B == in.B:
			m := open[len(open)-1]
			open = open[:len(open)-1]
			if dirty <= int(m) {
				dead[m], dead[pc] = true, true
				entered[ins[m].A]--
				continue
			}
			dirty = pc
		default:
			if _, leaves := in.Enters(pc); leaves || ops[in.Op].fails {
				dirty = pc
			}
		}
	}

	// Rule 2. Code control cannot reach goes: an instruction nothing
	// enters — rule 1's deletions included — that follows one that never
	// falls through (a raise, jump, fail or return.fail), or one that goes
	// itself. Its edges go with it.
	reached := true
	for pc, in := range ins {
		switch {
		case reached || entered[pc] > 0:
			reached = in.Op.Falls() || dead[pc] // a jump to the next pc falls through
		case !dead[pc]:
			dead[pc] = true
			if to, ok := in.Enters(pc); ok {
				entered[to]--
			}
		}
	}

	// Rules 3–5 and the jump to the next instruction, over the survivors
	// of rules 1 and 2 appended to out (in place: out never outruns pc).
	// orig[i] is the pc out[i] came from; pos[pc] is where it sits in out,
	// or -1.
	// A deleted pc's edges enter the next survivor, so its entered count
	// moves there with them: to the pc that follows it in out, or else to
	// the next pc still to come.
	out := ins[:0]
	orig := make([]int32, 0, n)
	pos := make([]int32, n+1)
	boxed := func(slot int32) bool { return code.Boxes != nil && code.Boxes[slot] }
	hand := func(from, to int32) { entered[to] += entered[from]; entered[from] = 0 }
	for pc := 0; pc < n; pc++ {
		pos[pc] = -1
		if dead[pc] {
			hand(int32(pc), int32(pc+1))
			continue
		}
		// A jump whose target the deletions since have made the next pc:
		// its edge and the edges into it all enter pc.
		for k := len(out) - 1; k >= 0 && out[k].Op == OpJump && orig[k] < out[k].A && int(out[k].A) <= pc; k-- {
			entered[pc]--
			hand(orig[k], int32(pc))
			pos[orig[k]] = -1
			out, orig = out[:k], orig[:k]
		}
		out, orig = append(out, ins[pc]), append(orig, int32(pc))
		k := len(out) - 1
		pos[pc] = int32(k)
		if entered[pc] > 0 {
			continue // only the first instruction of a window may be entered
		}
		switch out[k].Op {
		case OpLoadSlot:
			if k >= 2 && out[k-1].Op == OpPop && entered[orig[k-1]] == 0 &&
				(out[k-2].Op == OpStoreSlot || out[k-2].Op == OpBindSlot) &&
				out[k-2].A == out[k].A && !boxed(out[k].A) {
				out[k-2].Op = OpStoreSlot
				pos[orig[k-1]], pos[pc] = -1, -1
				out, orig = out[:k-1], orig[:k-1]
			}
		case OpPop:
			j := k - 1
			for j >= 0 && out[j].Op == OpCut && entered[orig[j]] == 0 {
				j--
			}
			if j < 0 {
				break
			}
			switch out[j].Op {
			case OpConst, OpNull, OpLoadSlot:
				// out[j] may be entered: its edges go to the first cut
				// after it, or past the pop.
				if j+1 < k {
					hand(orig[j], orig[j+1])
				} else {
					hand(orig[j], int32(pc+1))
				}
				pos[orig[j]], pos[pc] = -1, -1
				copy(out[j:], out[j+1:k])
				copy(orig[j:], orig[j+1:k])
				for i := j; i < k-1; i++ {
					pos[orig[i]] = int32(i)
				}
				out, orig = out[:k-1], orig[:k-1]
			case OpCmp:
				out[j].Op = OpCmpTest
				pos[pc] = -1
				out, orig = out[:k], orig[:k]
			}
		}
	}

	resumes := code.Resumes[:0]
	for _, r := range code.Resumes {
		if !dead[r.PC] { // else a mark nothing can take (rule 1), or unreached (rule 2)
			resumes = append(resumes, r)
		}
	}
	code.Instrs, code.Resumes = out, resumes
	retarget(code, pos, n)

	// Rule 6: renumber the aux cells still named, in their old order.
	countAux(out, uses)
	next := int32(0)
	for b, u := range uses {
		if u > 0 {
			uses[b] = next
			next++
		} else {
			uses[b] = -1
		}
	}
	for i := range out {
		out[i].eachAux(func(cell *int32) { *cell = uses[*cell] })
	}
	code.NumAux = int(next)
	liveness(code, pos)
}

// retarget points code's branch targets and resume pcs where they went:
// pos[pc] is a survivor's new place, -1 continues at the next survivor.
func retarget(code *Code, pos []int32, n int) {
	pos[n] = int32(len(code.Instrs))
	for pc := n - 1; pc >= 0; pc-- {
		if pos[pc] < 0 {
			pos[pc] = pos[pc+1]
		}
	}
	for i := range code.Instrs {
		if code.Instrs[i].Op.roles()[0] == rolePC {
			code.Instrs[i].A = pos[code.Instrs[i].A]
		}
	}
	for i := range code.Resumes {
		code.Resumes[i].PC = int(pos[code.Resumes[i].PC])
	}
}

// bitset is a set of small non-negative integers, a bit each.
type bitset []uint64

func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) add(i int32)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) drop(i int32)     { b[i>>6] &^= 1 << (i & 63) }

// union adds o to b and reports whether b grew.
func (b bitset) union(o bitset) (grew bool) {
	for i, x := range o {
		grew = grew || b[i]|x != b[i]
		b[i] |= x
	}
	return grew
}

// each calls fn on every member of b that is also in o, in order.
func (b bitset) each(o bitset, fn func(i int32)) {
	for k, x := range b {
		for x &= o[k]; x != 0; x &= x - 1 {
			fn(int32(k*64 + bits.TrailingZeros64(x)))
		}
	}
}

// takesTop reports whether in takes the top of stack at once as a value:
// its opcode's derefs, or call.native's and make.list's when they pop one.
func takesTop(in Instr) bool {
	if in.Op == OpCallNative || in.Op == OpMakeList {
		return in.A > 0
	}
	return ops[in.Op].derefs
}

// liveness runs rules 7 and 8 over the code rules 1–6 left. pos is
// scratch of at least len(code.Instrs)+1 entries.
func liveness(code *Code, pos []int32) {
	ins := code.Instrs
	n, ns := len(ins), len(code.Slots)
	// One block of scratch: live-in sets per pc (pc n's empty), slot sets,
	// a conflict row per slot, the pcs entered other than by falling
	// through, and per slot its colour, then its new number.
	w := (ns + 63) / 64
	block := make([]uint64, (n+5)*w+ns*w+(n+64)/64+2*ns)
	take := func(k int) bitset { b := block[:k:k]; block = block[k:]; return b }
	liveIn := take((n + 1) * w)
	in := func(pc int) bitset { return liveIn[pc*w : pc*w+w] }
	resumed, out, temps, named := take(w), take(w), take(w), take(w)
	conflicts, joins, colour, first := take(ns*w), take((n+64)/64), take(ns), take(ns)
	row := func(s int32) bitset { return conflicts[int(s)*w : int(s)*w+w] }

	kept := func(s int32) bool { return code.Boxes != nil && code.Boxes[s] || code.Shares && int(s) < code.Params }
	for s := code.Params; s < ns; s++ {
		if strings.HasPrefix(code.Slots[s], "x_") && !kept(int32(s)) {
			temps.add(int32(s))
		}
	}
	for pc := range ins {
		if to, ok := ins[pc].Enters(pc); ok {
			joins.add(int32(to))
		}
		if op := ins[pc].Op; op != OpLoadSlot && op != OpStoreSlot && op != OpBindSlot {
			ins[pc].eachSlot(func(s int32) int32 { temps.drop(s); return s }) // a case subject or a target
		}
	}

	// flow puts the slots live after pc in out: live at the next pc, a
	// branch target or the pc after a yield, and where failure resumes.
	flow := func(pc int) {
		clear(out)
		x := ins[pc]
		if x.Op.Falls() {
			out.union(in(pc + 1))
		}
		if to, ok := x.Enters(pc); ok {
			out.union(in(to))
		}
		if ops[x.Op].fails {
			out.union(resumed)
		}
	}
	for grew := true; grew; {
		grew = false
		for pc := n - 1; pc >= 0; pc-- {
			flow(pc)
			if x := ins[pc]; x.Op == OpStoreSlot || x.Op == OpBindSlot {
				out.drop(x.A)
			} else {
				x.eachSlot(func(s int32) int32 { out.add(s); return s })
			}
			grew = in(pc).union(out) || grew
		}
		for _, r := range code.Resumes {
			grew = resumed.union(in(r.PC)) || grew
		}
	}

	// Rule 7, and rule 8's conflicts: a store that stays conflicts with
	// the temporaries live after it.
	next := -1 // the next pc that stays, cuts aside
	for pc := n - 1; pc >= 0; pc-- {
		flow(pc)
		pos[pc] = 0
		if ins[pc].Op == OpPop && ins[pc+1].Op == OpFail && !joins.has(int32(pc+1)) {
			pos[pc] = -1 // the fail drops it
			continue
		}
		if x := ins[pc]; x.Op == OpStoreSlot || x.Op == OpBindSlot {
			s := x.A
			if !out.has(s) && !kept(s) && (x.Op == OpBindSlot || next >= 0 && takesTop(ins[next]) ||
				pc > 0 && !joins.has(int32(pc)) && ops[ins[pc-1].Op].plain) {
				pos[pc] = -1
				continue
			}
			if temps.has(s) {
				out.each(temps, func(t int32) { row(s).add(t); row(t).add(s) })
			}
		}
		ins[pc].eachSlot(func(s int32) int32 { named.add(s); return s })
		if ins[pc].Op != OpCut {
			next = pc // a cut leaves the stack alone
		}
	}
	// begin nulls every slot: the temporaries live on entry conflict.
	in(0).each(temps, func(s int32) { row(s).union(in(0)) })

	// Rule 8: each temporary still named takes the least colour no
	// temporary before it that it conflicts with has taken.
	for k := range temps {
		temps[k] &= named[k]
	}
	for s := int32(0); s < int32(ns); s++ {
		if !temps.has(s) {
			continue
		}
		clear(out)
		row(s).each(temps, func(t int32) {
			if t < s {
				out.add(int32(colour[t]))
			}
		})
		c := int32(0)
		for out.has(c) {
			c++
		}
		colour[s] = uint64(c)
	}
	slots := code.Slots
	j := int32(0)
	for s := int32(0); s < int32(ns); s++ {
		c := colour[s]
		switch {
		case !named.has(s) && s >= int32(code.Params) && !kept(s):
			continue
		case temps.has(s) && first[c] > 0:
			colour[s] = first[c] - 1
			slots[colour[s]] += "/" + slots[s]
			continue
		case temps.has(s):
			first[c] = uint64(j + 1)
		}
		slots[j] = slots[s]
		if code.Boxes != nil {
			code.Boxes[j] = code.Boxes[s]
		}
		colour[s] = uint64(j)
		j++
	}
	code.Slots, code.Boxes = slots[:j], code.Boxes[:min(int(j), len(code.Boxes))]
	k := 0
	for pc := range n {
		if pos[pc] >= 0 {
			pos[pc] = int32(k)
			ins[k] = ins[pc]
			ins[k].eachSlot(func(s int32) int32 { return int32(colour[s]) })
			k++
		}
	}
	code.Instrs = ins[:k]
	retarget(code, pos, n)
}
