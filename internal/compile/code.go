// Package compile lowers normalized Junicon syntax trees — the §5A normal
// forms the transform package produces — into flat bytecode for the vm
// package's slot-based resumable frames, and for the translate package,
// which emits each code object as a Go state machine. Where the
// tree-walking interpreter composes closure generators (interface
// dispatch per resume), the compiler reduces suspend/resume to a saved
// program counter plus a choice stack inside one reusable frame:
// goal-directed backtracking becomes "pop the most recent choice point
// and re-enter its instruction".
//
// Forms whose state looks as if it lived outside one frame lower onto the
// same model: a static variable is a cell private to the code object, a
// reversible assignment is a store plus an undo choice point, a scanning
// expression swaps the scan environment at the points where the tree
// walk's scanGen does, and a co-expression or pipe body is a nested code
// object whose frame the created value owns.
//
// A bare <> body is a nested code object too, sharing the creating
// frame's variables through boxed slots.
//
// Lowering is one pass that emits every step of the normal form; before
// Proc or Expr returns, every code object, nested ones included, goes
// through one more pass (optimize.go) that deletes the glue this leaves —
// choice points nothing can take, reloads of a value just stored,
// comparison results nobody reads — so every consumer of the code sees
// the same instruction stream.
//
// Every form the parser accepts lowers. A form the tree walk raises on —
// an unknown keyword, return or suspend in expression position, an
// assignment to a builtin, break or next outside a loop, a malformed
// literal, a native not yet registered — compiles to a raise of the tree
// walk's error, taken when control reaches it. Unsupported is left for an
// Env that lacks what a construct needs (no scan environment, no
// DefineGlobal, no native table): the one list of what an embedding must
// supply. The interpreter and the translator always supply it.
package compile

import (
	"fmt"

	"junicon/internal/ast"
	"junicon/internal/core"
	"junicon/internal/value"
)

// Op is a bytecode operation.
type Op uint8

// The instruction set. A/B/C are the instruction operands: A is the
// primary operand (constant index, slot, jump target, argument count),
// B names the frame's auxiliary cell backing resumable instructions and
// C carries an extra constant index where needed. The opcode table (ops)
// gives each opcode's operand roles and the rest of its shape.
//
// Numbers are append-only, so a unit keeps its fingerprint: a retired
// opcode's number stays unassigned (a blank in the list below).
const (
	OpNop Op = iota

	// ----- values and slots -----
	OpConst       // push Consts[A]
	OpNull        // push &null
	OpPop         // pop and discard
	OpPopN        // pop A values and discard (loop-exit stack truncation)
	OpLoadSlot    // push slots[A]
	OpStoreSlot   // slots[A] = deref(top); top replaced by the stored value
	OpBindSlot    // slots[A] = deref(top); top kept (BindIn: x_N in e)
	OpLoadGlobal  // push Globals[A]'s value
	OpStoreGlobal // Globals[A] = deref(top); top replaced by the stored value

	// ----- control -----
	OpJump       // pc = A
	OpFail       // backtrack: resume the most recent choice point
	OpYield      // pop v; emit deref(v); resumption continues at pc+1
	OpReturn     // pop v; discard all choice points; emit deref(v)
	OpReturnFail // discard all choice points and fail the frame (proc `fail`)
	OpMark       // arm a failure handler: failure resumes at A; aux B records the barrier
	OpCut        // drop choice points above aux B's barrier (commit a bounded context)
	OpFork       // alternation: arm a choice point; resumption continues at A
	OpRepAlt     // |e loop head (aux B): re-runs e while each cycle produced
	OpRepNote    // record that the enclosing |e cycle produced a value (aux B)
	OpLimitBegin // pop n (e \ n); aux B holds the count, limit and barrier
	OpLimitCheck // count one result; at the limit, cut e's choice points
	OpInitOnce   // run-once guard: when Globals[C] is non-null jump to A, else set it and fall through

	// ----- operators -----
	OpArith       // pop b, a; push arith[A](a, b)
	OpCmp         // pop b, a; v, ok = cmp[A](a, b); fail or push v
	OpUnary       // pop a; push unary[A](a)
	OpNullTest    // pop a; push &null when null, else fail (/x)
	OpNonNullTest // pop a; fail when null, else push the value (\x)
	OpBang        // pop v; generate v's elements (aux B); A = 1 generates references (an assignment target)
	OpToBy        // pop by, hi, lo; generate the range (aux B)
	OpCaseEq      // pop v; continue when v === slots[A], else fail

	// ----- structures -----
	OpMakeList // pop A values; push the list [v1, …, vA]
	OpIndex    // pop i, x; push the reference x[i] or fail
	_          // retired: index's reference twin
	OpSection  // pop j, i, x; push x[i:j] or fail
	OpField    // pop x; push the reference x.name for name Consts[A]; missing raises
	_          // retired: field's reference twin
	OpStoreVar // pop v, t; t must be a variable; t := deref(v); push the value
	// Read-modify-write, assignment and exchange. A (and the exchanges' C)
	// are target operands (see Target): a slot, a global cell, or a
	// reference the preceding code pushed. op:= reads the target when the
	// operation applies, per source value, as core.AugAssignTo does. The
	// reversible forms arm an undo choice point whose resumption restores
	// the saved values and keeps failing.
	OpAug       // pop v [, ref]; r = arith[C](target A, v); A = r; push r
	OpCmpAug    // pop v [, ref]; r, ok = cmp[C](target A, v); fail or A = r; push r
	_           // retired: aug on a slot
	_           // retired: cmp.aug on a slot
	_           // retired: aug on a global
	_           // retired: cmp.aug on a global
	OpRevAssign // pop v [, ref]; save target A in aux B; A = v; push v; undo on resumption
	OpSwap      // [pop refs]; exchange targets A and C (aux B is scratch); push A's new value
	OpRevSwap   // OpSwap, saving both in aux B; undo on resumption

	// ----- invocation -----
	OpCall       // A args + callee on stack; general call, resumable (aux B)
	OpCall1      // A args + callee; facts-proven ≤1-yield pure call, no choice point (aux B)
	OpCallNative // A args; native Consts[C]; singleton result or fail (aux B)

	// ----- co-expressions and pipes -----
	OpCreate   // pop A captured values; push a co-expression (C = 0) or pipe (C != 0) over Subs[B]
	OpActivate // pop c [, transmitted value when A = 1]; push c's next result or fail

	// ----- string scanning (aux B holds the environment pair) -----
	OpScanBegin  // pop subject; enter a fresh environment; A = 1 arms the choice point that leaves it
	OpScanEnd    // deref top inside the environment, then leave it; resumption re-enters and keeps failing
	OpScanLeave  // leave the environment: A = LeaveForGood, or LeaveToResume (deref top first) around a yield or return
	OpScanResume // after a yield: re-enter, outermost cell A taking the current environment as outer, innermost B's becoming current
	OpScanVar    // push the &subject (A = 0) or &pos (A = 1) variable

	// ----- boxed slots, references and ?x (appended: earlier opcodes keep their numbers) -----
	OpLoadBox   // push the value of the cell in boxed slot A
	OpStoreBox  // cell in slot A := deref(top); B = 0 replaces top by the stored value, B = 1 keeps it
	OpBoxVar    // push the cell in boxed slot A itself (a reference)
	OpGlobalVar // push the cell Globals[A] itself (a reference)
	OpRandom    // pop v; push a random element of v, or fail when it has none

	// ----- made by the pass after lowering (optimize.go) -----
	OpCmpTest // pop b, a; fail unless cmp[A](a, b) holds; push nothing

	// ----- forms the tree walk raises on (appended) -----
	OpRaise // raise error A with the message Consts[C]; never falls through

	opCount
)

// NumOps is the number of defined opcodes — the table size per-opcode
// consumers (the vm profiler) allocate.
const NumOps = int(opCount)

// role is what an operand's number names.
type role uint8

const (
	roleNone     role = iota
	rolePC            // a pc: a branch target or failure handler
	roleSlot          // a frame slot
	roleGlobal        // a Globals cell
	roleConst         // a Consts entry
	roleAux           // an aux cell
	roleOuter         // scan.resume's outermost aux cell
	roleInner         // scan.resume's innermost aux cell
	roleArith         // an ArithNames index
	roleCmp           // a CmpNames index
	roleUnary         // a UnaryNames index
	roleTarget        // an assignment target (see Target); a TargetRef pops a reference
	roleCount         // pops that many values
	roleArgc          // pops that many arguments
	roleSub           // a Subs index
	roleError         // a runtime error number
	roleMode          // create's kind (see PipeDefault)
	roleRefs          // flag: generate references
	roleArms          // flag: arm the resume point
	roleLeave         // scan.leave's mode (LeaveForGood, LeaveToResume)
	roleKeyword       // 0 for &subject, 1 for &pos
	roleTransmit      // flag: pop a transmitted value
	roleKeep          // flag: keep the top of stack
)

// opInfo is an opcode's shape: everything a consumer of a code object
// needs about an instruction except what it does.
type opInfo struct {
	name    string
	a, b, c role
	stack   int8   // fixed operand-stack effect; count, argc, transmit and reference-target operands pop on top of it
	resume  string // the kind of resume point the instruction is ("" none)
	fails   bool   // may fail, or arm or cut choice points
	ends    bool   // control never falls through to pc+1
	suspend bool   // leaves the frame with a value; a resumption continues at pc+1
	plain   bool   // pushes a value, never a variable
	derefs  bool   // takes the top of stack at once as a value: pops it dereferenced or discarded, or replaces it by its value (see takesTop)
	note    string // listing format for the operands' notes ("" is "%s")
}

// ops is the one description of every instruction's shape: the
// disassembler, the stack-depth count, the resume table, the pass after
// lowering and the translator's join points all read it.
var ops = [opCount]opInfo{
	OpNop:         {name: "nop"},
	OpConst:       {name: "const", a: roleConst, stack: 1, plain: true},
	OpNull:        {name: "null", stack: 1, plain: true},
	OpPop:         {name: "pop", stack: -1, derefs: true},
	OpPopN:        {name: "pop.n", a: roleCount},
	OpLoadSlot:    {name: "load.slot", a: roleSlot, stack: 1, plain: true},
	OpStoreSlot:   {name: "store.slot", a: roleSlot, derefs: true},
	OpBindSlot:    {name: "bind.slot", a: roleSlot},
	OpLoadGlobal:  {name: "load.global", a: roleGlobal, stack: 1, plain: true},
	OpStoreGlobal: {name: "store.global", a: roleGlobal, plain: true, derefs: true},

	OpJump:       {name: "jump", a: rolePC, ends: true},
	OpFail:       {name: "fail", fails: true, ends: true},
	OpYield:      {name: "yield", stack: -1, resume: "yield", ends: true, suspend: true, derefs: true},
	OpReturn:     {name: "return", stack: -1, fails: true, ends: true, suspend: true, derefs: true},
	OpReturnFail: {name: "return.fail", fails: true, ends: true},
	OpMark:       {name: "mark", a: rolePC, b: roleAux, resume: "mark", fails: true},
	OpCut:        {name: "cut", b: roleAux, fails: true},
	OpFork:       {name: "fork", a: rolePC, resume: "fork", fails: true},
	OpRepAlt:     {name: "rep.alt", a: rolePC, b: roleAux, resume: "rep-alt", fails: true},
	OpRepNote:    {name: "rep.note", b: roleAux},
	OpLimitBegin: {name: "limit.begin", b: roleAux, stack: -1, fails: true, derefs: true},
	OpLimitCheck: {name: "limit.check", b: roleAux, fails: true},
	OpInitOnce:   {name: "init.once", a: rolePC, c: roleGlobal},

	OpArith:       {name: "arith", a: roleArith, stack: -1, plain: true, derefs: true},
	OpCmp:         {name: "cmp", a: roleCmp, stack: -1, fails: true, plain: true, derefs: true},
	OpUnary:       {name: "unary", a: roleUnary, plain: true, derefs: true},
	OpNullTest:    {name: "null.test", fails: true, plain: true, derefs: true},
	OpNonNullTest: {name: "nonnull.test", fails: true, plain: true, derefs: true},
	OpBang:        {name: "bang", a: roleRefs, b: roleAux, resume: "bang", fails: true, derefs: true},
	OpToBy:        {name: "to.by", b: roleAux, stack: -2, resume: "to-by", fails: true, plain: true, derefs: true},
	OpCaseEq:      {name: "case.eq", a: roleSlot, stack: -1, fails: true, derefs: true, note: "subject %s"},

	OpMakeList:  {name: "make.list", a: roleCount, stack: 1, plain: true},
	OpIndex:     {name: "index", stack: -1, fails: true, derefs: true},
	OpSection:   {name: "section", stack: -2, fails: true, derefs: true},
	OpField:     {name: "field", a: roleConst, derefs: true, note: ".%s"},
	OpStoreVar:  {name: "store.var", stack: -1, plain: true, derefs: true},
	OpAug:       {name: "aug", a: roleTarget, c: roleArith, plain: true, derefs: true, note: "%s %s:="},
	OpCmpAug:    {name: "cmp.aug", a: roleTarget, c: roleCmp, fails: true, plain: true, derefs: true, note: "%s %s:="},
	OpRevAssign: {name: "rev.assign", a: roleTarget, b: roleAux, resume: "undo", fails: true, plain: true, derefs: true, note: "%s <-"},
	OpSwap:      {name: "swap", a: roleTarget, b: roleAux, c: roleTarget, stack: 1, fails: true, plain: true, note: "%s :=: %s"},
	OpRevSwap:   {name: "rev.swap", a: roleTarget, b: roleAux, c: roleTarget, stack: 1, resume: "undo", fails: true, plain: true, note: "%s <-> %s"},

	OpCall:       {name: "call", a: roleArgc, b: roleAux, resume: "call", fails: true, derefs: true},
	OpCall1:      {name: "call1", a: roleArgc, b: roleAux, fails: true, derefs: true},
	OpCallNative: {name: "call.native", a: roleArgc, b: roleAux, c: roleConst, stack: 1, fails: true},

	OpCreate:   {name: "create", a: roleArgc, b: roleSub, c: roleMode, stack: 1, plain: true},
	OpActivate: {name: "activate", a: roleTransmit, fails: true},

	OpScanBegin:  {name: "scan.begin", a: roleArms, b: roleAux, stack: -1, resume: "scan", fails: true},
	OpScanEnd:    {name: "scan.end", b: roleAux, resume: "scan-end", fails: true},
	OpScanLeave:  {name: "scan.leave", a: roleLeave, b: roleAux},
	OpScanResume: {name: "scan.resume", a: roleOuter, b: roleInner},
	OpScanVar:    {name: "scan.var", a: roleKeyword, stack: 1},

	OpLoadBox:   {name: "load.box", a: roleSlot, stack: 1, plain: true},
	OpStoreBox:  {name: "store.box", a: roleSlot, b: roleKeep},
	OpBoxVar:    {name: "box.var", a: roleSlot, stack: 1},
	OpGlobalVar: {name: "global.var", a: roleGlobal, stack: 1},
	OpRandom:    {name: "random", fails: true},

	OpCmpTest: {name: "cmp.test", a: roleCmp, stack: -2, fails: true, derefs: true},

	OpRaise: {name: "raise", a: roleError, c: roleConst, ends: true},
}

// roles lists an opcode's operand roles, A, B and C.
func (op Op) roles() [3]role { return [3]role{ops[op].a, ops[op].b, ops[op].c} }

// aux reports whether the role names an aux cell.
func (r role) aux() bool { return r == roleAux || r == roleOuter || r == roleInner }

// Name returns the opcode's listing mnemonic.
func (op Op) Name() string {
	if int(op) < len(ops) && ops[op].name != "" {
		return ops[op].name
	}
	return fmt.Sprintf("op(%d)", op)
}

// Falls reports whether control can continue from op straight to the
// next pc.
func (op Op) Falls() bool { return !ops[op].ends }

// Instr is one instruction.
type Instr struct {
	Op      Op
	A, B, C int32
}

// Enters returns the pc that in, standing at pc, sends control to other
// than by falling through: its branch target, or for a yield or return
// the next pc, where a resumption continues.
func (in Instr) Enters(pc int) (int, bool) {
	switch info := &ops[in.Op]; {
	case info.a == rolePC:
		return int(in.A), true
	case info.suspend:
		return pc + 1, true
	}
	return 0, false
}

// operands returns in's A, B and C operands.
func (in *Instr) operands() [3]*int32 { return [3]*int32{&in.A, &in.B, &in.C} }

// stackEffect is the net operand-stack change of one instruction.
func stackEffect(in Instr) int {
	n := int(ops[in.Op].stack)
	v := in.operands()
	for i, r := range in.Op.roles() {
		switch r {
		case roleCount, roleArgc, roleTransmit:
			n -= int(*v[i])
		case roleTarget:
			n -= TargetRefs(*v[i])
		}
	}
	return n
}

// eachAux calls fn on each operand of in that names an aux cell.
func (in *Instr) eachAux(fn func(cell *int32)) {
	v := in.operands()
	for i, r := range in.Op.roles() {
		if r.aux() {
			fn(v[i])
		}
	}
}

// eachSlot calls fn on each frame slot in names, a target operand's
// included, and puts the slot fn returns in its place.
func (in *Instr) eachSlot(fn func(slot int32) int32) {
	v := in.operands()
	for i, r := range in.Op.roles() {
		if kind, s := SplitTarget(*v[i]); r == roleSlot {
			*v[i] = fn(*v[i])
		} else if r == roleTarget && kind == TargetSlot {
			*v[i] = Target(kind, fn(s))
		}
	}
}

// Resume is one entry of a code object's resume-point table: an
// instruction that execution can re-enter after a suspension (yield) or a
// failure (choice point). The table is what makes a compiled generator's
// continuation explicit data — PC plus slots — rather than a captured
// closure stack.
type Resume struct {
	PC   int
	Kind string // "yield", "mark", "fork", "call", "bang", "to-by", "rep-alt", "undo", "scan", "scan-end"
}

// Code is a compiled unit: a top-level expression or a procedure body.
type Code struct {
	Name    string // procedure name, or "" for an expression
	Params  int    // leading slots bound from call arguments
	Instrs  []Instr
	Consts  []value.V
	Globals []*value.Var // global cells, resolved at compile time
	// GlobalNames parallels Globals for the disassembler.
	GlobalNames []string
	// Slots names the frame's slot array: parameters first, then locals
	// and the x_N temporaries of the normal form, in slot order.
	Slots  []string
	NumAux int // auxiliary cells backing resumable instructions
	// Resumes is the resume-point table, in program order.
	Resumes []Resume
	// Subs are the nested units: one per |<> or |> create site, its body
	// compiled as an expression whose parameters are the captured names.
	Subs []*Code
	// Scan is the scanning context the unit's scan opcodes swap
	// environments on; nil when the unit does not scan.
	Scan *core.ScanHolder
	// Boxes marks the slots that hold a cell instead of a value: a name a
	// bare <> body shares with its creating scope, or one an assignment
	// target reaches by reference. nil when no slot is boxed.
	Boxes []bool
	// Shares marks the body of a bare <>: its parameters are the creating
	// frame's cells themselves, not copies of their values.
	Shares bool
}

// Target operand kinds of OpAug, OpCmpAug, OpRevAssign, OpSwap and OpRevSwap.
const (
	TargetSlot   = 0 // slots[index]
	TargetGlobal = 1 // Globals[index]
	TargetRef    = 2 // a *value.Var on the operand stack
)

// Target packs a target operand: kind in the low two bits, index above.
func Target(kind int, index int32) int32 { return index<<2 | int32(kind) }

// SplitTarget unpacks a target operand.
func SplitTarget(t int32) (kind int, index int32) { return int(t & 3), t >> 2 }

// TargetRefs counts the stack references the target operands consume.
func TargetRefs(targets ...int32) int {
	n := 0
	for _, t := range targets {
		if kind, _ := SplitTarget(t); kind == TargetRef {
			n++
		}
	}
	return n
}

// OpScanLeave's A operand.
const (
	LeaveForGood  = 0 // the scan is over: its cell is cleared
	LeaveToResume = 1 // around a yield or return: deref the top of stack first, keep the cell
)

// Unsupported reports a construct the Env cannot serve: scanning without
// a scan environment, a native call without a native table, an unknown
// top-level name or declaration without DefineGlobal.
type Unsupported struct {
	Reason string
	At     ast.Pos
}

func (u *Unsupported) Error() string {
	return fmt.Sprintf("compile: unsupported at %d:%d: %s", u.At.Line, u.At.Col, u.Reason)
}

// Env supplies name resolution and interprocedural facts to the compiler.
// All lookups happen at compile time, mirroring the interpreter's
// resolve-at-construction discipline (the tree walk also binds cells when
// the generator is built, not when it is driven).
type Env struct {
	// LookupGlobal returns the cell of an existing global.
	LookupGlobal func(name string) (*value.Var, bool)
	// DefineGlobal auto-creates a global cell for an unknown top-level
	// name (the interpreter's REPL-persistence rule). nil in procedure
	// mode, where unknown names become frame slots (Icon default-local).
	DefineGlobal func(name string) *value.Var
	// LookupConst resolves builtins and natives to compile-time constant
	// values, after globals and locals have been tried.
	LookupConst func(name string) (value.V, bool)
	// Native resolves a ::name native invocation.
	Native func(name string) (*value.Native, bool)
	// CallDirect reports that calls to the named procedure may compile to
	// a direct (non-resumable) call: the facts engine proved the callee
	// pure with at most one yield.
	CallDirect func(name string) bool
	// Scan is the scanning context the scan builtins behind LookupConst
	// are bound to. nil leaves `s ? e`, &subject and &pos Unsupported.
	Scan *core.ScanHolder
	// PipeStrategy provisions a |> site from the facts of its body: run
	// the producer inline, or behind a queue of the given bound (<= 0
	// keeps the default). nil provisions every pipe the default way.
	PipeStrategy func(body ast.Node) (inline bool, buffer int)
}

// Operator tables: the compiler encodes an operator as an index into
// these shared tables; the vm indexes the same tables at run time. The
// functions are exactly the kernel's (core.ArithOp / core.CompareOp), so
// compiled and tree-walked operators share one implementation.
var (
	// ArithNames lists the binary arithmetic/constructive operators in
	// encoding order.
	ArithNames = []string{"+", "-", "*", "/", "%", "^", "||", "|||", "++", "--", "**"}
	// CmpNames lists the conditional comparison operators in encoding order.
	CmpNames = []string{"<", "<=", ">", ">=", "~=", "<<", "<<=", ">>", ">>=", "==", "~==", "===", "~==="}
	// UnaryNames lists the unary operators in encoding order.
	UnaryNames = []string{"-", "+", "~", "*", "^"}

	// ArithFns, CmpFns and UnaryFns are the corresponding kernel functions.
	ArithFns []func(a, b value.V) value.V
	CmpFns   []func(a, b value.V) (value.V, bool)
	UnaryFns []func(v value.V) value.V

	arithIndex = map[string]int{}
	cmpIndex   = map[string]int{}
)

func init() {
	for i, name := range ArithNames {
		fn, ok := core.ArithOp(name)
		if !ok {
			panic("compile: missing kernel arith op " + name)
		}
		ArithFns = append(ArithFns, fn)
		arithIndex[name] = i
	}
	for i, name := range CmpNames {
		fn, ok := core.CompareOp(name)
		if !ok {
			panic("compile: missing kernel comparison op " + name)
		}
		CmpFns = append(CmpFns, fn)
		cmpIndex[name] = i
	}
	UnaryFns = []func(v value.V) value.V{
		value.Neg, value.Pos, value.Complement,
		func(v value.V) value.V { // *x, including co-expression sizes
			if s, ok := value.Deref(v).(value.Sized); ok {
				return value.IntV(int64(s.Size()))
			}
			return value.Size(v)
		},
		core.Refresh, // ^x
	}
}

var unaryIndex = map[string]int{"-": 0, "+": 1, "~": 2, "*": 3, "^": 4}
