package compile

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
// Only the first instruction of a rewritten window may be one control
// enters other than by falling through — a branch target, or the
// instruction after a yield or return — and the only resume points that
// go are the marks of rule 1 and the unreached ones of rule 2. A deleted
// instruction's edges enter the next survivor, and so does its count of
// them. Every target operand and Resumes pc is remapped. The pass is
// linear in the code's length.

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

	// Remap: a deleted pc continues at the next survivor.
	pos[n] = int32(len(out))
	for pc := n - 1; pc >= 0; pc-- {
		if pos[pc] < 0 {
			pos[pc] = pos[pc+1]
		}
	}
	for i := range out {
		if out[i].Op.roles()[0] == rolePC {
			out[i].A = pos[out[i].A]
		}
	}
	resumes := code.Resumes[:0]
	for _, r := range code.Resumes {
		if dead[r.PC] {
			continue // a mark nothing can take (rule 1), or unreached (rule 2)
		}
		r.PC = int(pos[r.PC])
		resumes = append(resumes, r)
	}
	code.Instrs, code.Resumes = out, resumes

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
}
