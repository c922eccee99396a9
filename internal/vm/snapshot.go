package vm

import (
	"fmt"

	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/value"
	"junicon/internal/wire"
)

// Frame capture and rehydration: the vm half of durable generators. A
// suspended frame's entire continuation is already explicit data — program
// counter, operand stack, slot array, choice stack, aux cells — so a
// snapshot is a structural copy of those arrays plus, recursively, the
// live compiled child frame cached at any call site whose choice point is
// still on the stack. Restoring is the inverse: take a fresh frame from
// the target Machine's pool and overwrite its state, after validating the
// snapshot against the code object's fingerprint and structural bounds so
// a corrupt or mismatched snapshot fails loudly instead of resuming wrong.
//
// The vm defines the snapshot's frame tree, the one value Capture writes
// and Rehydrate reads; internal/checkpoint owns only the envelope around
// it (magic, version, checksum, metadata) and its wire encoding. A frame
// is an 11-field list
//
//	[name, fingerprint, pc, started, resumed, args, slots, stack, choices, aux, globals]
//
// with booleans as 0 or 1, each choice point a [pc, sp] pair, and globals
// a list of [name, value] pairs that only the root frame fills: the value
// of every global cell a code object the tower can reach names (see
// Capture). An aux cell is a 10-field list
//
//	[barrier, count, n, flag, mode, i0, i1, i2, kind, payload]
//
// whose scalars always travel (barriers and counters stay meaningful after
// control passed their instruction even with no choice point there), and
// whose payload is what its kind says — present only when the choice stack
// proves the cell live:
//
//	0 cold   null: the cell holds no live resumable handle
//	1 bang   the subject of a live !x, a list or a string
//	2 child  the frame tree of the live compiled callee at a call site
//	3 undo   [v0, v1]: the values a live <- or <-> restores
//	4 scan   [&subject, &pos, outer]: an entered scanning environment;
//	         outer is the aux cell whose environment was current when it
//	         was entered, or -1 when that was none of this frame's
//
// Values are shared, not copied: the caller encodes the tree before the
// frame runs again, which is also what severs aliasing, exactly as a
// co-expression environment snapshot copies locals structurally.
//
// Capture is conservative, like the compiler: a frame that is mid-dispatch
// (running), that holds boxed cells (shared with a bare <> body or handed
// out as assignment references), or whose live aux cells hold
// host-resident generators (a generic !x promotion, a to-by over bignums,
// a tree-walk callee) or a reversible assignment's reference target,
// refuses with a reason; callers fall back to restart-from-start
// recovery. Undo records on named targets, entered scanning environments
// and static cells (which travel with the globals) round-trip, and ?x
// leaves no state in the frame: it draws on the process's random stream.

// Frame tree fields.
const (
	fieldName = iota
	fieldFingerprint
	fieldPC
	fieldStarted
	fieldResumed
	fieldArgs
	fieldSlots
	fieldStack
	fieldChoices
	fieldAux
	fieldGlobals
	frameFields
)

// Aux cell fields: the scalars, then the payload kind and the payload.
const (
	auxKind    = 8
	auxPayload = 9
	auxFields  = 10
)

// Aux payload kinds.
const (
	auxCold = iota
	auxBang
	auxChild
	auxUndo
	auxScan
)

// Unsnapshotable reports a frame that cannot be captured, with the reason
// callers surface in their refusal (and fall back to replay recovery).
type Unsnapshotable struct{ Reason string }

func (u *Unsnapshotable) Error() string { return "vm: cannot snapshot frame: " + u.Reason }

func refuse(format string, args ...any) error {
	return &Unsnapshotable{Reason: fmt.Sprintf(format, args...)}
}

// maxTower bounds call-tower recursion in capture and rehydration: real
// towers are a handful of frames deep, and a forged snapshot must not
// recurse unboundedly.
const maxTower = 128

// Capture snapshots a suspended frame as its frame tree. The frame must
// be between Next calls (not running); it is not modified and may continue
// afterwards.
func Capture(f *Frame) (value.V, error) {
	fields, codes, err := capture(f, 0)
	if err != nil {
		return nil, err
	}
	var globals []value.V
	seen := map[string]bool{}
	for _, code := range reachable(codes) {
		for i, name := range code.GlobalNames {
			if seen[name] {
				continue
			}
			seen[name] = true
			val := code.Globals[i].Get()
			// A global still bound to its own definition (def f / a
			// builtin registered under the same name) is code, not state:
			// reloading the program on the restore side re-creates it, and
			// a procedure value could not encode anyway. Only a rebound
			// procedure global is genuine state — it stays in, so the
			// strict encoder refuses it loudly instead of reverting it.
			switch p := value.Deref(val).(type) {
			case *value.Proc:
				if p.Name == name {
					continue
				}
			case *value.Native:
				if p.Name == name {
					continue
				}
			}
			globals = append(globals, value.NewList(value.String(name), val))
		}
	}
	fields[fieldGlobals] = value.NewListOf(globals)
	return value.NewListOf(fields), nil
}

// reachable closes codes over the static call graph as the global cells
// stand now: a cell holding a compiled procedure leads to that
// procedure's unit. A procedure that ran and returned is in no tower, but
// the state it left behind — a global only it names, its static cells and
// run-once guard — is what its next call resumes from, so snapshots carry
// the cells of every unit the tower can still call, and restores set them.
// work is consumed.
func reachable(work []*compile.Code) []*compile.Code {
	var out []*compile.Code
	seen := map[*compile.Code]bool{}
	for len(work) > 0 {
		code := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[code] {
			continue
		}
		seen[code] = true
		out = append(out, code)
		for _, cell := range code.Globals {
			if p, ok := cell.Get().(*value.Proc); ok {
				if m, ok := p.Impl.(*Machine); ok {
					work = append(work, m.code)
				}
			}
		}
	}
	return out
}

// capture returns the fields of f's frame tree, its globals left empty,
// and the code objects of the captured tower: f's, then each callee's
// tower in aux-cell order.
func capture(f *Frame, depth int) ([]value.V, []*compile.Code, error) {
	if depth > maxTower {
		return nil, nil, refuse("call tower deeper than %d frames", maxTower)
	}
	if f.running {
		return nil, nil, refuse("frame is running (mid-Next); snapshot only between Next calls")
	}
	if f.code.Boxes != nil {
		// The cells are shared with the other side of a bare <> or with
		// references a target handed out; copies would sever that.
		return nil, nil, refuse("frame holds the shared cells of a bare <> or an assignment target (unit %q)", f.code.Name)
	}
	choices := make([]value.V, len(f.cp))
	for i, c := range f.cp {
		if int(c.pc) < 0 || int(c.pc) >= len(f.code.Instrs) || int(c.sp) > len(f.st) {
			return nil, nil, refuse("choice point out of bounds (pc=%d sp=%d)", c.pc, c.sp)
		}
		choices[i] = value.NewList(value.NewInt(int64(c.pc)), value.NewInt(int64(c.sp)))
	}
	aux := make([]value.V, len(f.aux))
	for i := range f.aux {
		a := &f.aux[i]
		aux[i] = value.NewListOf([]value.V{
			value.NewInt(int64(a.barrier)), value.NewInt(int64(a.count)), value.NewInt(int64(a.n)),
			boolV(a.flag), value.NewInt(int64(a.mode)),
			value.NewInt(a.i0), value.NewInt(a.i1), value.NewInt(a.i2),
			value.NewInt(auxCold), value.NullV,
		})
	}
	live := func(i int32, kind int64, payload value.V) {
		cell := aux[i].(*value.List).Elems()
		cell[auxKind], cell[auxPayload] = value.NewInt(kind), payload
	}
	// Liveness: an aux cell's handle matters only if a choice point can
	// resume its instruction. Cold call-site caches (a.frame with no live
	// choice) are dropped — the next arm re-creates them, semantically a
	// cache miss.
	var towers [][]*compile.Code // by aux cell: a captured callee's tower
	for _, c := range f.cp {
		in := f.code.Instrs[c.pc]
		switch in.Op {
		case compile.OpBang:
			a := &f.aux[in.B]
			switch a.mode {
			case bangList, bangString:
				live(in.B, auxBang, a.v0)
			case bangGen:
				return nil, nil, refuse("live !x over a host generator at pc %d", c.pc)
			}
		case compile.OpToBy:
			if f.aux[in.B].mode == tobyGen {
				return nil, nil, refuse("live to-by over a host range at pc %d", c.pc)
			}
			// tobyInt: the unboxed triple already travels in the scalars.
		case compile.OpCall, compile.OpCall1: // OpCall1 holds a choice point only when traced
			child, ok := f.aux[in.B].g.(*Frame)
			if !ok {
				return nil, nil, refuse("live call site with opaque callee at pc %d", c.pc)
			}
			if child.code.Name == "" {
				return nil, nil, refuse("live call site with anonymous callee at pc %d", c.pc)
			}
			fields, tower, err := capture(child, depth+1)
			if err != nil {
				return nil, nil, err
			}
			live(in.B, auxChild, value.NewListOf(fields))
			if towers == nil {
				towers = make([][]*compile.Code, len(f.aux))
			}
			towers[in.B] = tower
		case compile.OpRevAssign, compile.OpRevSwap:
			a := &f.aux[in.B]
			if compile.TargetRefs(in.A, in.C) > 0 {
				return nil, nil, refuse("live reversible assignment through a reference at pc %d", c.pc)
			}
			var saved value.V = value.NullV
			if in.Op == compile.OpRevSwap {
				saved = a.args[0]
			}
			live(in.B, auxUndo, value.NewList(value.Deref(a.v0), saved))
		}
	}
	// A scanning environment is live from entry to exit whether or not a
	// choice point marks it (a scanning statement arms none), so the cell
	// itself says so. A suspended frame has left all of them — the caller's
	// environment rules — and re-enters on resumption, so what travels is
	// each environment's content and which cell's it nests in.
	for i := range f.aux {
		a := &f.aux[i]
		if a.scan == nil {
			continue
		}
		live(int32(i), auxScan, value.NewList(value.String(a.scan.inner.Subject),
			value.NewInt(int64(a.scan.inner.Pos)), value.NewInt(int64(f.scanCell(a.scan.outer)))))
	}
	codes := []*compile.Code{f.code}
	for _, tower := range towers {
		codes = append(codes, tower...)
	}
	return []value.V{
		value.String(f.code.Name),
		value.NewInt(int64(f.code.Fingerprint())),
		value.NewInt(int64(f.pc)),
		boolV(f.started),
		boolV(f.resumed),
		value.NewList(f.args...),
		value.NewListOf(boxAll(f.slots)),
		value.NewListOf(boxAll(f.st)),
		value.NewListOf(choices),
		value.NewListOf(aux),
		value.NewListOf(nil), // the globals: Capture fills the root's, a child's stay empty
	}, codes, nil
}

// Rehydrate builds a frame of this Machine from a frame tree Capture made,
// resuming mid-iteration. resolve maps a child frame's unit name to its
// Machine (typically the interpreter's compiled-procedure table); it may
// be nil when the tree holds no call tower. The tree is read and checked
// in one pass: a field of the wrong type, arity or range is a
// *wire.ShapeError, and a tree that does not fit the code — fingerprint,
// slot and aux counts, pc and choice bounds, the state each live choice
// point resumes from — is an error too, never a silent misresume.
func (m *Machine) Rehydrate(tree value.V, resolve func(name string) (*Machine, bool)) (*Frame, error) {
	var codes []*compile.Code
	globals := map[string]value.V{}
	f, err := m.rehydrate(&wire.Fields{}, tree, resolve, &codes, globals, 0)
	if err != nil {
		return nil, err
	}
	// Re-establish the captured cells through every unit that names them
	// (Capture's walk, over this process's units). Global cells are
	// interp-wide, so a name lands on one cell however many units share
	// it; a static's name is its unit's alone.
	for _, code := range reachable(codes) {
		for i, name := range code.GlobalNames {
			if v, ok := globals[name]; ok {
				code.Globals[i].Set(v)
			}
		}
	}
	return f, nil
}

// rehydrate reads one frame of the tower; the root's (depth 0) global
// cells go into globals.
func (m *Machine) rehydrate(r *wire.Fields, tree value.V, resolve func(name string) (*Machine, bool), codes *[]*compile.Code, globals map[string]value.V, depth int) (*Frame, error) {
	if depth > maxTower {
		r.Fail("call tower too deep")
		return nil, r.Err
	}
	fs := r.List(tree, frameFields, "frame")
	r.String(fs[fieldName], "frame name")
	fp := uint64(r.Int(fs[fieldFingerprint], "frame fingerprint"))
	pc := r.Int32(fs[fieldPC], "frame pc")
	started := r.Int(fs[fieldStarted], "frame started") != 0
	resumed := r.Int(fs[fieldResumed], "frame resumed") != 0
	args := r.List(fs[fieldArgs], -1, "frame args")
	slots := r.List(fs[fieldSlots], -1, "frame slots")
	stack := r.List(fs[fieldStack], -1, "frame stack")
	f := m.NewFrame(args...)
	f.cp = f.cp[:0]
	for _, v := range r.List(fs[fieldChoices], -1, "frame choices") {
		pair := r.List(v, 2, "choice point")
		f.cp = append(f.cp, choice{pc: r.Int32(pair[0], "choice pc"), sp: r.Int32(pair[1], "choice sp")})
	}
	aux := r.List(fs[fieldAux], -1, "frame aux")
	for _, g := range r.List(fs[fieldGlobals], -1, "frame globals") {
		pair := r.List(g, 2, "global cell")
		if name := r.String(pair[0], "global name"); depth == 0 {
			globals[name] = value.Deref(pair[1])
		}
	}
	if r.Err != nil {
		return nil, r.Err
	}
	code := m.code
	if fp != code.Fingerprint() {
		return nil, fmt.Errorf("vm: restore: code fingerprint mismatch for %q (snapshot %#x, unit %#x)",
			code.Name, fp, code.Fingerprint())
	}
	if code.Boxes != nil {
		return nil, fmt.Errorf("vm: restore: unit %q holds shared cells, which never snapshot", code.Name)
	}
	if len(slots) != len(code.Slots) {
		return nil, fmt.Errorf("vm: restore: %d slots, unit has %d", len(slots), len(code.Slots))
	}
	if len(aux) != code.NumAux {
		return nil, fmt.Errorf("vm: restore: %d aux cells, unit has %d", len(aux), code.NumAux)
	}
	if !started {
		pc = 0 // exhausted or unstarted: the next Next re-begins anyway
	}
	if int(pc) < 0 || int(pc) >= len(code.Instrs) {
		return nil, fmt.Errorf("vm: restore: pc %d out of range [0,%d)", pc, len(code.Instrs))
	}
	// Between Next calls a started frame stands just past the yield or
	// return it suspended at, and no instruction is half resumed.
	if resumed || started && (pc == 0 || !suspends(code.Instrs[pc-1].Op)) {
		return nil, fmt.Errorf("vm: restore: frame at pc %d (resumed=%t) is not suspended past a yield or return", pc, resumed)
	}
	*codes = append(*codes, code)
	f.pc, f.started = pc, started
	for i, v := range slots {
		f.slots[i] = slot{v: v}
	}
	f.st = f.st[:0]
	for _, v := range stack {
		f.st = append(f.st, slot{v: v})
	}
	for i, v := range aux {
		cell := r.List(v, auxFields, "aux cell")
		a := &f.aux[i]
		a.barrier = r.Int32(cell[0], "aux barrier")
		a.count = r.Int32(cell[1], "aux count")
		a.n = r.Int32(cell[2], "aux n")
		a.flag = r.Int(cell[3], "aux flag") != 0
		mode := r.Int(cell[4], "aux mode")
		if a.mode = int8(mode); int64(a.mode) != mode {
			r.Fail("aux mode out of range")
		}
		a.i0, a.i1, a.i2 = r.Int(cell[5], "aux i0"), r.Int(cell[6], "aux i1"), r.Int(cell[7], "aux i2")
		a.v0, a.g, a.proc, a.frame, a.scan = nil, nil, nil, nil, nil
		a.args = a.args[:0]
		payload := cell[auxPayload]
		switch kind := r.Int(cell[auxKind], "aux kind"); {
		case r.Err != nil, kind == auxCold:
		case kind == auxBang:
			a.v0 = value.Deref(payload)
		case kind == auxChild:
			name := r.String(r.List(payload, frameFields, "frame")[fieldName], "frame name")
			if r.Err != nil {
				break
			}
			if resolve == nil {
				return nil, fmt.Errorf("vm: restore: aux %d: no resolver for callee %q", i, name)
			}
			cm, ok := resolve(name)
			if !ok {
				return nil, fmt.Errorf("vm: restore: aux %d: no compiled unit for callee %q", i, name)
			}
			cf, err := cm.rehydrate(r, payload, resolve, codes, globals, depth+1)
			if err != nil {
				return nil, err
			}
			// a.proc stays nil: the next re-arm is a cache miss that
			// re-binds the site to the live procedure cell.
			a.frame, a.g = cf, cf
		case kind == auxUndo:
			// Only named targets are captured, so a.args holds no
			// references: just what OpRevSwap keeps there.
			saved := r.List(payload, 2, "undo record")
			a.v0, a.args = value.Deref(saved[0]), append(a.args, value.Deref(saved[1]))
		case kind == auxScan:
			env := r.List(payload, 3, "scanning environment")
			subject, pos := r.String(env[0], "scanning environment subject"), r.Int(env[1], "scanning environment pos")
			if r.Int32(env[2], "scanning environment outer"); pos < 1 || pos > int64(len(subject))+1 {
				r.Fail("scanning environment pos %d outside its subject", pos)
			}
			a.scan = &scanEnv{inner: core.ScanState{Subject: subject, Pos: int(pos)}}
		default:
			r.Fail("aux kind %d unknown", kind)
		}
		if r.Err != nil {
			return nil, r.Err
		}
	}
	for i, v := range aux {
		if f.aux[i].scan == nil {
			continue
		}
		outer := r.Int32(r.List(r.List(v, auxFields, "aux cell")[auxPayload], 3, "scanning environment")[2], "scanning environment outer")
		if outer >= 0 {
			if int(outer) >= len(f.aux) || f.aux[outer].scan == nil {
				return nil, fmt.Errorf("vm: restore: aux %d: outer scanning environment %d missing", i, outer)
			}
			f.aux[i].scan.outer = &f.aux[outer].scan.inner
		}
	}
	// A forged tree must not resume an instruction without the state it
	// reads: a live choice point's, a live mark's barrier (the index of its
	// choice point, which the cut ahead slices to), a live limitation's
	// (at most the index of the first choice point inside the limited
	// expression, which a limit.check ahead cuts back past), and the
	// scanning environments a resumption at pc re-enters.
	for i, c := range f.cp {
		if int(c.pc) < 0 || int(c.pc) >= len(code.Instrs) || c.sp < 0 || int(c.sp) > len(stack) {
			return nil, fmt.Errorf("vm: restore: choice point out of bounds (pc=%d sp=%d)", c.pc, c.sp)
		}
		in := code.Instrs[c.pc]
		if !f.resumable(in) || in.Op == compile.OpMark && f.aux[in.B].barrier != int32(i) || f.limitedPast(c.pc, int32(i)) {
			return nil, fmt.Errorf("vm: restore: choice point at pc %d (%s) without the state it resumes", c.pc, in.Op.Name())
		}
	}
	if in := code.Instrs[pc]; started && in.Op == compile.OpScanResume && !f.scanChain(in.A, in.B) {
		return nil, fmt.Errorf("vm: restore: pc %d re-enters scanning environments the snapshot lacks", pc)
	}
	return f, nil
}

// limitedPast reports whether pc lies inside a limited expression whose
// barrier is above index i of the choice stack.
func (f *Frame) limitedPast(pc, i int32) bool {
	for p, in := range f.code.Instrs[:pc] {
		if in.Op != compile.OpLimitBegin || f.aux[in.B].barrier <= i {
			continue
		}
		closed := false
		for _, end := range f.code.Instrs[p+1 : pc] {
			closed = closed || end.Op == compile.OpLimitCheck && end.B == in.B
		}
		if !closed {
			return true
		}
	}
	return false
}

// scanChain reports whether the scanning environments scan.resume a b
// re-enters are in place: cell b's, and those its outer links lead
// through to cell a's.
func (f *Frame) scanChain(a, b int32) bool {
	for range f.aux {
		e := f.aux[b].scan
		if e == nil {
			return false
		}
		if b == a {
			return true
		}
		if b = int32(f.scanCell(e.outer)); b < 0 {
			return false
		}
	}
	return false
}

// scanCell returns the aux cell whose entered environment s is, or -1.
func (f *Frame) scanCell(s *core.ScanState) int {
	for j := range f.aux {
		if e := f.aux[j].scan; e != nil && &e.inner == s {
			return j
		}
	}
	return -1
}

// resumable reports whether the state the resumption of in reads is in
// place, as Capture records it for a live choice point at in.
func (f *Frame) resumable(in compile.Instr) bool {
	switch in.Op {
	case compile.OpMark, compile.OpFork, compile.OpRepAlt:
		return true
	case compile.OpBang:
		a := &f.aux[in.B]
		switch a.v0.(type) {
		case *value.List:
			return a.mode == bangList
		case value.String:
			return a.mode == bangString && a.i0 >= 0
		}
	case compile.OpToBy:
		return f.aux[in.B].mode == tobyInt
	case compile.OpCall, compile.OpCall1:
		return f.aux[in.B].frame != nil
	case compile.OpRevAssign, compile.OpRevSwap:
		return len(f.aux[in.B].args) == 1 && compile.TargetRefs(in.A, in.C) == 0
	case compile.OpScanBegin:
		return in.A != 0 && f.aux[in.B].scan != nil // only an armed scan.begin holds a choice point
	case compile.OpScanEnd:
		return f.aux[in.B].scan != nil
	}
	return false
}

// suspends reports whether op leaves the frame with a value, a resumption
// continuing after it.
func suspends(op compile.Op) bool { return op == compile.OpYield || op == compile.OpReturn }

func boolV(b bool) value.V {
	if b {
		return value.NewInt(1)
	}
	return value.NewInt(0)
}

// boxAll copies slots or stack entries out as values, boxing the unboxed
// integers: a snapshot carries exactly the values the frame would yield.
func boxAll(ss []slot) []value.V {
	out := make([]value.V, len(ss))
	for i, s := range ss {
		out[i] = s.val()
	}
	return out
}
