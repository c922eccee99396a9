package compile

import (
	"junicon/internal/ast"
	"junicon/internal/value"
)

// Expr lowers a normalized top-level expression into bytecode. Unknown
// names auto-create globals (via env.DefineGlobal), matching the
// interpreter's top-of-session rule; x_N temporaries become frame slots.
// *Unsupported means env lacks what a construct needs.
func Expr(n ast.Node, env Env) (code *Code, err error) {
	c := newCompiler(env, false)
	defer c.trap(&err)
	c.root = n
	c.boxed = boxNames(n)
	c.expr(n)
	c.emit(OpYield, 0, 0, 0)
	c.emit(OpFail, 0, 0, 0)
	return c.finish(), nil
}

// Proc lowers a procedure declaration into bytecode: parameters occupy the
// leading slots, locals and temporaries follow in the order they resolve,
// and the control skeleton — suspend / return / fail, loops, case —
// compiles structurally, exactly as the interpreter executes it.
func Proc(d *ast.ProcDecl, env Env) (code *Code, err error) {
	c := newCompiler(env, true)
	defer c.trap(&err)
	c.code.Name = d.Name
	c.code.Params = len(d.Params)
	c.boxed = boxNames(d.Body)
	for _, p := range d.Params {
		c.slot(p)
	}
	c.statics(d)
	for _, s := range d.Body.Stmts {
		c.stmt(s)
	}
	// Falling off the end fails the procedure (Icon semantics): no
	// resumable state survives.
	c.emit(OpReturnFail, 0, 0, 0)
	return c.finish(), nil
}

// compiler is the single-pass lowering state for one unit.
type compiler struct {
	env       Env
	procMode  bool
	code      *Code
	depth     int // static operand-stack depth at the current pc
	slotIdx   map[string]int
	constIdx  map[string]int
	globalIdx map[string]int
	loops     []*loopCtx
	scans     []scanCtx
	// root is the top-level expression being compiled (nil for a
	// procedure); outer, computed from it at the first create site, holds
	// the names it uses outside any create body (see captures).
	root  ast.Node
	outer map[string]bool
	// boxed holds the names whose slots are cells (see boxNames).
	boxed map[string]bool
}

// scanCtx is one lexically enclosing scanning expression or statement:
// its environment cell and how many loops enclosed it when it opened, so
// a break or next that leaves the loop also leaves the environment.
type scanCtx struct {
	aux   int32
	loops int
}

const (
	resSlot int8 = iota + 1
	resGlobal
	resConst
)

// loopCtx is the compile-time context of one lexically enclosing loop.
type loopCtx struct {
	aux        int32 // aux cell whose barrier marks the current iteration
	entryDepth int   // operand-stack depth at loop entry
	breaks     []int // Jump sites to patch to the loop exit
	statement  bool  // statement-position loop (break outcome is bounded)
	nextAux    int32 // aux cell bounding the body (cut target for next)
	nexts      []int // Jump sites to patch to the continue point
	inBody     bool  // currently compiling the loop body (next's domain)
}

func newCompiler(env Env, procMode bool) *compiler {
	return &compiler{
		env:       env,
		procMode:  procMode,
		code:      &Code{},
		slotIdx:   map[string]int{},
		constIdx:  map[string]int{},
		globalIdx: map[string]int{},
	}
}

func (c *compiler) trap(err *error) {
	if r := recover(); r != nil {
		if u, ok := r.(*Unsupported); ok {
			*err = u
			return
		}
		panic(r)
	}
}

func (c *compiler) unsupported(n ast.Node, reason string) {
	var at ast.Pos
	if n != nil {
		at = n.Pos()
	}
	panic(&Unsupported{Reason: reason, At: at})
}

// raise emits a raise of the error the tree walk gives for a form that
// has no meaning where it stands (OpRaise), taken when control reaches
// it. Control never falls through; the code after it sees the value the
// form stands for pushed.
func (c *compiler) raise(code int, msg string) {
	c.emit(OpRaise, int32(code), 0, c.constant(value.String(msg), "str:"+msg))
	c.depth++
}

// finish runs the pass after lowering (optimize.go) over the unit.
func (c *compiler) finish() *Code {
	optimize(c.code)
	return c.code
}

// ----- emission helpers -----

// emit appends one instruction, keeping the static depth and the resume
// table (a scan.begin is a resume point only when it arms one).
func (c *compiler) emit(op Op, a, b, cc int32) int {
	in := Instr{Op: op, A: a, B: b, C: cc}
	c.code.Instrs = append(c.code.Instrs, in)
	c.depth += stackEffect(in)
	pc := len(c.code.Instrs) - 1
	if kind := ops[op].resume; kind != "" && (ops[op].a != roleArms || a != 0) {
		c.code.Resumes = append(c.code.Resumes, Resume{PC: pc, Kind: kind})
	}
	return pc
}

// here is the pc of the next instruction to be emitted.
func (c *compiler) here() int32 { return int32(len(c.code.Instrs)) }

// patchA points the jump/handler operand of the instruction at site to the
// current pc.
func (c *compiler) patchA(site int) { c.code.Instrs[site].A = c.here() }

func (c *compiler) newAux() int32 {
	c.code.NumAux++
	return int32(c.code.NumAux - 1)
}

// slot returns (allocating if needed) the slot of a local name.
func (c *compiler) slot(name string) int32 {
	if i, ok := c.slotIdx[name]; ok {
		return int32(i)
	}
	i := len(c.code.Slots)
	c.slotIdx[name] = i
	c.code.Slots = append(c.code.Slots, name)
	if c.boxed[name] && c.code.Boxes == nil {
		c.code.Boxes = make([]bool, i)
	}
	if c.code.Boxes != nil {
		c.code.Boxes = append(c.code.Boxes, c.boxed[name])
	}
	return int32(i)
}

// boxedSlot reports whether slot i holds a cell.
func (c *compiler) boxedSlot(i int32) bool {
	return c.code.Boxes != nil && c.code.Boxes[i]
}

// hiddenSlot allocates an unnamed compiler-internal slot (case subjects).
// The parenthesized name cannot collide with source identifiers.
func (c *compiler) hiddenSlot(kind string) int32 {
	name := "(" + kind + ")"
	for {
		if _, ok := c.slotIdx[name]; !ok {
			break
		}
		name += "'"
	}
	return c.slot(name)
}

// global returns the Globals index of cell.
func (c *compiler) global(name string, cell *value.Var) int32 {
	if i, ok := c.globalIdx[name]; ok {
		return int32(i)
	}
	i := len(c.code.Globals)
	c.globalIdx[name] = i
	c.code.Globals = append(c.code.Globals, cell)
	c.code.GlobalNames = append(c.code.GlobalNames, name)
	return int32(i)
}

// constant interns v in the constant pool; key dedups literals ("" means
// always append).
func (c *compiler) constant(v value.V, key string) int32 {
	if key != "" {
		if i, ok := c.constIdx[key]; ok {
			return int32(i)
		}
	}
	i := len(c.code.Consts)
	c.code.Consts = append(c.code.Consts, v)
	if key != "" {
		c.constIdx[key] = i
	}
	return int32(i)
}

// ----- name resolution -----

// resolve classifies name exactly as the interpreter's scope chain does:
// slots (parameters, locals, temporaries), then the unit's static cells,
// then globals, then builtins and natives; an unknown name defaults to a
// local in procedure mode and auto-creates a global at top level. The
// result is resSlot or resGlobal with its index, or resConst with the
// constant-pool index.
func (c *compiler) resolve(n ast.Node, name string, tmp bool) (int8, int32) {
	if i, ok := c.slotIdx[name]; ok {
		return resSlot, int32(i)
	}
	if tmp {
		// x_N temporaries are always frame-local; BindIn defines them
		// before any TmpRef reads (guaranteed by the normal form).
		return resSlot, c.slot(name)
	}
	if i, ok := c.globalIdx[name]; ok {
		return resGlobal, int32(i) // a static, or a global seen before
	}
	if cell, ok := c.env.LookupGlobal(name); ok {
		return resGlobal, c.global(name, cell)
	}
	if v, ok := c.env.LookupConst(name); ok {
		return resConst, c.constant(v, "name:"+name)
	}
	if c.procMode {
		return resSlot, c.slot(name) // Icon default-local rule
	}
	if c.env.DefineGlobal == nil {
		c.unsupported(n, "unknown name "+name)
	}
	return resGlobal, c.global(name, c.env.DefineGlobal(name))
}

// bound reports whether name resolves, as things stand, to a slot, a
// static or a global cell.
func (c *compiler) bound(name string) bool {
	_, slot := c.slotIdx[name]
	_, global := c.globalIdx[name]
	if slot || global {
		return true
	}
	_, ok := c.env.LookupGlobal(name)
	return ok
}

// loadName emits a load of name.
func (c *compiler) loadName(n ast.Node, name string, tmp bool) {
	kind, i := c.resolve(n, name, tmp)
	if kind == resSlot && c.boxedSlot(i) {
		c.emit(OpLoadBox, i, 0, 0)
		return
	}
	c.emit([...]Op{resSlot: OpLoadSlot, resGlobal: OpLoadGlobal, resConst: OpConst}[kind], i, 0, 0)
}

// storeSlot stores the top of stack into slot i (OpStoreSlot's contract),
// through the cell when the slot is boxed.
func (c *compiler) storeSlot(i int32) {
	if c.boxedSlot(i) {
		c.emit(OpStoreBox, i, 0, 0)
		return
	}
	c.emit(OpStoreSlot, i, 0, 0)
}
