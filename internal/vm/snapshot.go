package vm

import (
	"fmt"

	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/value"
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
// Capture is conservative, like the compiler: a frame that is mid-dispatch
// (running), that holds boxed cells (shared with a bare <> body or handed
// out as assignment references), or whose live aux cells hold
// host-resident generators (a generic !x promotion, a to-by over bignums,
// a tree-walk callee) or a reversible assignment's reference target,
// refuses with a reason; callers fall back to restart-from-start
// recovery. Undo records on named targets, entered scanning environments
// and static cells (which travel with the globals) round-trip, and ?x
// leaves no state in the frame: it draws on the process's random stream.

// FrameSnap is the portable state of one suspended frame. All values are
// shared, not copied — the caller encodes the snapshot (internal/wire)
// before the frame runs again, which is also what severs aliasing, exactly
// as a co-expression environment snapshot copies locals structurally.
type FrameSnap struct {
	// Name is the compiled unit's name ("" for a top-level expression);
	// child frames rehydrate by resolving it to a Machine.
	Name string
	// Fingerprint pins the code object this state was captured against.
	Fingerprint uint64
	PC          int32
	Started     bool
	Resumed     bool
	Args        []value.V
	Slots       []value.V
	Stack       []value.V
	Choices     []ChoiceSnap
	Aux         []AuxSnap
	// Globals, populated only on the root snapshot, records the value of
	// every global cell any code object in the call tower references —
	// backtracking generators like n-queens keep their board there, so a
	// frame restored without them would resume against nulls. Dedup is by
	// name: the cells are interp-wide, one entry covers every frame.
	Globals []GlobalSnap
}

// GlobalSnap is one captured global cell.
type GlobalSnap struct {
	Name string
	Val  value.V
}

// ChoiceSnap is one captured choice point.
type ChoiceSnap struct{ PC, SP int32 }

// Aux payload kinds: what, beyond the unconditional scalar fields, a
// captured aux cell carries.
const (
	AuxCold  = 0 // scalars only: the cell has no live resumable handle
	AuxBang  = 1 // V0 holds a live !x subject (list or string fast path)
	AuxChild = 2 // Child holds a live compiled callee frame (OpCall site)
	AuxUndo  = 3 // V0 (and V1) hold the values a live <- or <-> restores
	AuxScan  = 4 // V0, V1 and Outer hold an entered scanning environment
)

// AuxSnap is one captured aux cell. Scalar fields serialize
// unconditionally (barriers and counters stay meaningful after control
// passed their instruction even with no choice point there); handles only
// when the choice stack proves the cell live.
type AuxSnap struct {
	Barrier, Count, N int32
	Flag              bool
	Mode              int8
	I0, I1, I2        int64
	Kind              int8
	V0, V1            value.V
	Child             *FrameSnap
	// Outer (AuxScan) is the aux cell whose environment was current when
	// this one was entered, or -1 when that was none of this frame's — the
	// pointer the frame restores on the way out. &subject travels in V0,
	// &pos in V1.
	Outer int32
}

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

// Capture snapshots a suspended frame. The frame must be between Next
// calls (not running); it is not modified and may continue afterwards.
func Capture(f *Frame) (*FrameSnap, error) {
	s, err := capture(f, 0)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, code := range reachable(towerCodes(f, s, nil)) {
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
			s.Globals = append(s.Globals, GlobalSnap{Name: name, Val: val})
		}
	}
	return s, nil
}

// towerCodes appends the code objects of the captured tower. It follows
// the snapshot's own child links so only frames that were actually
// captured contribute.
func towerCodes(f *Frame, s *FrameSnap, codes []*compile.Code) []*compile.Code {
	codes = append(codes, f.code)
	for j := range s.Aux {
		if s.Aux[j].Kind == AuxChild {
			if child, ok := f.aux[j].g.(*Frame); ok {
				codes = towerCodes(child, s.Aux[j].Child, codes)
			}
		}
	}
	return codes
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

func capture(f *Frame, depth int) (*FrameSnap, error) {
	if depth > maxTower {
		return nil, refuse("call tower deeper than %d frames", maxTower)
	}
	if f.running {
		return nil, refuse("frame is running (mid-Next); snapshot only between Next calls")
	}
	if f.code.Boxes != nil {
		// The cells are shared with the other side of a bare <> or with
		// references a target handed out; copies would sever that.
		return nil, refuse("frame holds the shared cells of a bare <> or an assignment target (unit %q)", f.code.Name)
	}
	for _, c := range f.cp {
		if int(c.pc) < 0 || int(c.pc) >= len(f.code.Instrs) || int(c.sp) > len(f.st) {
			return nil, refuse("choice point out of bounds (pc=%d sp=%d)", c.pc, c.sp)
		}
	}
	s := &FrameSnap{
		Name:        f.code.Name,
		Fingerprint: f.code.Fingerprint(),
		PC:          f.pc,
		Started:     f.started,
		Resumed:     f.resumed,
		Args:        append([]value.V(nil), f.args...),
		Slots:       boxAll(f.slots),
		Stack:       boxAll(f.st),
		Choices:     make([]ChoiceSnap, len(f.cp)),
		Aux:         make([]AuxSnap, len(f.aux)),
	}
	for i, c := range f.cp {
		s.Choices[i] = ChoiceSnap{PC: c.pc, SP: c.sp}
	}
	for i := range f.aux {
		a := &f.aux[i]
		s.Aux[i] = AuxSnap{
			Barrier: a.barrier, Count: a.count, N: a.n,
			Flag: a.flag, Mode: a.mode,
			I0: a.i0, I1: a.i1, I2: a.i2,
			Kind: AuxCold,
		}
	}
	// Liveness: an aux cell's handle matters only if a choice point can
	// resume its instruction. Cold call-site caches (a.frame with no live
	// choice) are dropped — the next arm re-creates them, semantically a
	// cache miss.
	for _, c := range f.cp {
		in := f.code.Instrs[c.pc]
		switch in.Op {
		case compile.OpBang:
			a := &f.aux[in.B]
			switch a.mode {
			case bangList, bangString:
				s.Aux[in.B].Kind = AuxBang
				s.Aux[in.B].V0 = a.v0
			case bangGen:
				return nil, refuse("live !x over a host generator at pc %d", c.pc)
			}
		case compile.OpToBy:
			if f.aux[in.B].mode == tobyGen {
				return nil, refuse("live to-by over a host range at pc %d", c.pc)
			}
			// tobyInt: the unboxed triple already travels in the scalars.
		case compile.OpCall, compile.OpCall1: // OpCall1 holds a choice point only when traced
			a := &f.aux[in.B]
			child, ok := a.g.(*Frame)
			if !ok {
				return nil, refuse("live call site with opaque callee at pc %d", c.pc)
			}
			if child.code.Name == "" {
				return nil, refuse("live call site with anonymous callee at pc %d", c.pc)
			}
			cs, err := capture(child, depth+1)
			if err != nil {
				return nil, err
			}
			s.Aux[in.B].Kind = AuxChild
			s.Aux[in.B].Child = cs
		case compile.OpRevAssign, compile.OpRevSwap:
			a := &f.aux[in.B]
			if compile.TargetRefs(in.A, in.C) > 0 {
				return nil, refuse("live reversible assignment through a reference at pc %d", c.pc)
			}
			s.Aux[in.B].Kind = AuxUndo
			s.Aux[in.B].V0, s.Aux[in.B].V1 = value.Deref(a.v0), value.NullV
			if in.Op == compile.OpRevSwap {
				s.Aux[in.B].V1 = a.args[0]
			}
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
		as := &s.Aux[i]
		as.Kind, as.Outer = AuxScan, -1
		as.V0, as.V1 = value.String(a.scan.inner.Subject), value.NewInt(int64(a.scan.inner.Pos))
		for j := range f.aux {
			if other := f.aux[j].scan; other != nil && &other.inner == a.scan.outer {
				as.Outer = int32(j)
			}
		}
	}
	return s, nil
}

// Rehydrate builds a frame of this Machine from a snapshot, resuming
// mid-iteration. resolve maps a child frame's unit name to its Machine
// (typically the interpreter's compiled-procedure table); it may be nil
// when the snapshot holds no call tower. The snapshot is validated
// structurally — fingerprint, array lengths, pc and choice bounds, aux
// payload types — and a mismatch is an error, never a silent misresume.
func (m *Machine) Rehydrate(s *FrameSnap, resolve func(name string) (*Machine, bool)) (*Frame, error) {
	var globals map[string]value.V
	if len(s.Globals) > 0 {
		globals = make(map[string]value.V, len(s.Globals))
		for _, g := range s.Globals {
			globals[g.Name] = g.Val
		}
	}
	var codes []*compile.Code
	f, err := m.rehydrate(s, resolve, &codes, 0)
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

func (m *Machine) rehydrate(s *FrameSnap, resolve func(name string) (*Machine, bool), codes *[]*compile.Code, depth int) (*Frame, error) {
	if depth > maxTower {
		return nil, fmt.Errorf("vm: restore: call tower deeper than %d frames", maxTower)
	}
	code := m.code
	if s.Fingerprint != code.Fingerprint() {
		return nil, fmt.Errorf("vm: restore: code fingerprint mismatch for %q (snapshot %#x, unit %#x)",
			code.Name, s.Fingerprint, code.Fingerprint())
	}
	if len(s.Slots) != len(code.Slots) {
		return nil, fmt.Errorf("vm: restore: %d slots, unit has %d", len(s.Slots), len(code.Slots))
	}
	if len(s.Aux) != code.NumAux {
		return nil, fmt.Errorf("vm: restore: %d aux cells, unit has %d", len(s.Aux), code.NumAux)
	}
	pc := s.PC
	if !s.Started {
		pc = 0 // exhausted or unstarted: the next Next re-begins anyway
	}
	if int(pc) < 0 || int(pc) >= len(code.Instrs) {
		return nil, fmt.Errorf("vm: restore: pc %d out of range [0,%d)", pc, len(code.Instrs))
	}
	for _, c := range s.Choices {
		if int(c.PC) < 0 || int(c.PC) >= len(code.Instrs) || c.SP < 0 || int(c.SP) > len(s.Stack) {
			return nil, fmt.Errorf("vm: restore: choice point out of bounds (pc=%d sp=%d)", c.PC, c.SP)
		}
	}
	*codes = append(*codes, code)
	f := m.NewFrame(s.Args...)
	f.pc = pc
	f.started = s.Started
	f.resumed = s.Resumed
	for i, v := range s.Slots {
		f.slots[i] = slot{v: v}
	}
	f.st = f.st[:0]
	for _, v := range s.Stack {
		f.st = append(f.st, slot{v: v})
	}
	f.cp = f.cp[:0]
	for _, c := range s.Choices {
		f.cp = append(f.cp, choice{pc: c.PC, sp: c.SP})
	}
	for i := range s.Aux {
		as := &s.Aux[i]
		a := &f.aux[i]
		a.barrier, a.count, a.n = as.Barrier, as.Count, as.N
		a.flag, a.mode = as.Flag, as.Mode
		a.i0, a.i1, a.i2 = as.I0, as.I1, as.I2
		a.v0, a.g, a.proc, a.frame, a.scan = nil, nil, nil, nil, nil
		a.args = a.args[:0]
		switch as.Kind {
		case AuxCold:
		case AuxUndo:
			// Only named targets are captured, so a.args holds no
			// references: just what OpRevSwap keeps there.
			a.v0, a.args = value.Deref(as.V0), append(a.args, value.Deref(as.V1))
		case AuxScan:
			subject, ok := value.Deref(as.V0).(value.String)
			pos, ok2 := value.Deref(as.V1).(value.Integer)
			p, ok3 := pos.Int64()
			if !ok || !ok2 || !ok3 || p < 1 || p > int64(len(subject))+1 {
				return nil, fmt.Errorf("vm: restore: aux %d: malformed scanning environment", i)
			}
			a.scan = &scanEnv{inner: core.ScanState{Subject: string(subject), Pos: int(p)}}
		case AuxBang:
			switch as.Mode {
			case bangList:
				if _, ok := value.Deref(as.V0).(*value.List); !ok {
					return nil, fmt.Errorf("vm: restore: aux %d: !x subject is %s, want list", i, value.TypeOf(as.V0))
				}
				a.v0 = value.Deref(as.V0)
			case bangString:
				sv, ok := value.Deref(as.V0).(value.String)
				if !ok {
					return nil, fmt.Errorf("vm: restore: aux %d: !x subject is %s, want string", i, value.TypeOf(as.V0))
				}
				a.v0 = sv
			default:
				return nil, fmt.Errorf("vm: restore: aux %d: bang payload with mode %d", i, as.Mode)
			}
		case AuxChild:
			if as.Child == nil {
				return nil, fmt.Errorf("vm: restore: aux %d: missing child frame", i)
			}
			if resolve == nil {
				return nil, fmt.Errorf("vm: restore: aux %d: no resolver for callee %q", i, as.Child.Name)
			}
			cm, ok := resolve(as.Child.Name)
			if !ok {
				return nil, fmt.Errorf("vm: restore: aux %d: no compiled unit for callee %q", i, as.Child.Name)
			}
			cf, err := cm.rehydrate(as.Child, resolve, codes, depth+1)
			if err != nil {
				return nil, err
			}
			a.frame = cf
			a.g = cf
			// a.proc stays nil: the next re-arm is a cache miss that
			// re-binds the site to the live procedure cell.
		default:
			return nil, fmt.Errorf("vm: restore: aux %d: unknown payload kind %d", i, as.Kind)
		}
	}
	for i := range s.Aux {
		if as := &s.Aux[i]; as.Kind == AuxScan && as.Outer >= 0 {
			if int(as.Outer) >= len(f.aux) || f.aux[as.Outer].scan == nil {
				return nil, fmt.Errorf("vm: restore: aux %d: outer scanning environment %d missing", i, as.Outer)
			}
			f.aux[i].scan.outer = &f.aux[as.Outer].scan.inner
		}
	}
	return f, nil
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
