package translate

import (
	"fmt"
	"strconv"
	"strings"

	"junicon/internal/compile"
	"junicon/internal/value"
)

// unit emits one code object as a Go type and the constructor of its
// Machine, after those of the bodies nested in it. The type embeds
// vm.Frame, the frame state; its Next is the code object's instruction
// stream with the dispatch taken out: straight-line code falls through,
// and the switch on the pc is entered only where control joins — at the
// start, at a jump target, and at every point a failure or a resumption
// re-enters (the code object's resume table). recv, for a class method,
// is the class type whose instance supplies the field cells.
func (e *emitter) unit(code *compile.Code, id, recv string) {
	subs := make([]string, len(code.Subs))
	for i, sub := range code.Subs {
		subs[i] = fmt.Sprintf("%s_%d", id, i)
		e.unit(sub, subs[i], recv)
	}
	param, arg := "", ""
	if recv != "" {
		param, arg = "o *"+recv, "o"
	}
	name := code.Name
	if name == "" {
		name = "a top-level statement"
	}
	e.linef("// %s is the state machine of %s.", id, name)
	e.linef("type %s struct{ vm.Frame }\n", id)
	e.linef("func machine_%s(%s) *vm.Machine {", id, param)
	e.linef("return vm.Emitted(&compile.Code{")
	e.linef("Name: %q, Params: %d, NumAux: %d,", code.Name, code.Params, code.NumAux)
	e.linef("Slots: %s,", quoteAll(code.Slots))
	if len(code.Consts) > 0 {
		e.linef("Consts: []value.V{%s},", strings.Join(e.constants(code.Consts), ", "))
	}
	if len(code.GlobalNames) > 0 {
		cells := make([]string, len(code.GlobalNames))
		for i, g := range code.GlobalNames {
			switch {
			case strings.HasPrefix(g, "static "):
				cells[i] = fmt.Sprintf("static(%q)", g)
			case recv != "" && e.fields[g]:
				cells[i] = "o." + goName(g) + "_r"
			default:
				cells[i] = fmt.Sprintf("Global(%q)", g)
			}
		}
		e.linef("Globals: []*value.Var{%s},", strings.Join(cells, ", "))
		e.linef("GlobalNames: %s,", quoteAll(code.GlobalNames))
	}
	if code.Scan != nil {
		e.linef("Scan: scanHolder,")
	}
	if code.Boxes != nil {
		e.linef("Boxes: %#v, Shares: %v,", code.Boxes, code.Shares)
	}
	e.linef("}, func() (core.Gen, *vm.Frame) { f := new(%s); return f, &f.Frame },", id)
	for _, s := range subs {
		e.linef("machine_%s(%s),", s, arg)
	}
	e.linef(")\n}\n")

	e.linef("func (f *%s) Next() (value.V, bool) {", id)
	e.linef("r := &f.Frame\nr.Enter()\nfor {\nswitch r.PC() {")
	joins := joinPoints(code)
	live := false
	for pc, in := range code.Instrs {
		if joins[pc] {
			if live {
				e.linef("fallthrough")
			}
			e.linef("case %d:", pc)
		} else if !live {
			continue // unreachable: nothing jumps or falls here
		}
		e.instr(int32(pc), in)
		live = in.Op.Falls()
	}
	e.linef("default:\npanic(%q)\n}\n}\n}\n", "translated "+id+": bad pc")
}

// joinPoints lists the pcs control reaches other than by falling through.
func joinPoints(code *compile.Code) map[int]bool {
	joins := map[int]bool{0: true}
	for _, r := range code.Resumes {
		joins[r.PC] = true
	}
	for pc, in := range code.Instrs {
		if to, ok := in.Enters(pc); ok {
			joins[to] = true
		}
	}
	return joins
}

// instr emits one instruction as calls of its vm.Frame method.
func (e *emitter) instr(pc int32, in compile.Instr) {
	a, b, c := in.A, in.B, in.C
	call := func(format string, args ...any) {
		e.linef("r."+format, args...)
	}
	// test emits an instruction that may fail: failure backtracks.
	test := func(format string, args ...any) {
		e.linef("if !r."+format+" {", args...)
		e.linef("if !r.Fail() {\nreturn nil, false\n}\ncontinue\n}")
	}
	// handler emits an instruction whose re-entry by failure continues at A.
	handler := func(format string, args ...any) {
		e.linef("if "+format+" {", args...)
		e.linef("r.Goto(%d)\ncontinue\n}", a)
	}
	switch in.Op {
	case compile.OpNop:
	case compile.OpConst:
		call("Const(%d)", a)
	case compile.OpNull:
		call("Null()")
	case compile.OpPop:
		call("Pop()")
	case compile.OpPopN:
		call("PopN(%d)", a)
	case compile.OpLoadSlot:
		call("LoadSlot(%d)", a)
	case compile.OpStoreSlot:
		call("StoreSlot(%d)", a)
	case compile.OpBindSlot:
		call("BindSlot(%d)", a)
	case compile.OpLoadGlobal:
		call("LoadGlobal(%d)", a)
	case compile.OpStoreGlobal:
		call("StoreGlobal(%d)", a)
	case compile.OpLoadBox:
		call("LoadBox(%d)", a)
	case compile.OpStoreBox:
		call("StoreBox(%d, %d)", a, b)
	case compile.OpBoxVar:
		call("BoxVar(%d)", a)
	case compile.OpGlobalVar:
		call("GlobalVar(%d)", a)

	case compile.OpJump:
		e.linef("r.Goto(%d)\ncontinue", a)
	case compile.OpFail:
		e.linef("if !r.Fail() {\nreturn nil, false\n}\ncontinue")
	case compile.OpYield:
		e.linef("return r.Yield(%d)", pc+1)
	case compile.OpReturn:
		e.linef("return r.Return(%d)", pc+1)
	case compile.OpReturnFail:
		e.linef("return r.ReturnFail()")
	case compile.OpMark:
		handler("r.Mark(%d, %d)", b, pc)
	case compile.OpCut:
		call("Cut(%d)", b)
	case compile.OpFork:
		handler("r.Fork(%d)", pc)
	case compile.OpRepAlt:
		test("RepAlt(%d, %d)", b, pc)
	case compile.OpRepNote:
		call("RepNote(%d)", b)
	case compile.OpLimitBegin:
		test("LimitBegin(%d)", b)
	case compile.OpLimitCheck:
		call("LimitCheck(%d)", b)
	case compile.OpInitOnce:
		handler("!r.InitOnce(%d)", c)

	case compile.OpArith:
		call("Arith(%d)", a)
	case compile.OpCmp:
		test("Cmp(%d)", a)
	case compile.OpCmpTest:
		test("CmpTest(%d)", a)
	case compile.OpRaise:
		e.linef("r.Raise(%d, %d)", a, c)
	case compile.OpUnary:
		call("Unary(%d)", a)
	case compile.OpNullTest:
		test("NullTest()")
	case compile.OpNonNullTest:
		test("NonNullTest()")
	case compile.OpRandom:
		test("Random()")
	case compile.OpBang:
		test("Bang(%d, %d, %v)", b, pc, a != 0)
	case compile.OpToBy:
		test("ToBy(%d, %d)", b, pc)
	case compile.OpCaseEq:
		test("CaseEq(%d)", a)

	case compile.OpMakeList:
		call("MakeList(%d)", a)
	case compile.OpIndex:
		test("Index()")
	case compile.OpSection:
		test("Section()")
	case compile.OpField:
		call("Field(%d)", a)
	case compile.OpStoreVar:
		call("StoreVar()")
	case compile.OpAug:
		call("Aug(%d, %d)", a, c)
	case compile.OpCmpAug:
		test("CmpAug(%d, %d)", a, c)
	case compile.OpRevAssign:
		test("RevAssign(%d, %d, %d)", a, b, pc)
	case compile.OpSwap, compile.OpRevSwap:
		test("Swap(%d, %d, %d, %d, %v)", a, b, c, pc, in.Op == compile.OpRevSwap)

	case compile.OpCall:
		test("Call(%d, %d, %d)", a, b, pc)
	case compile.OpCall1:
		test("Call1(%d, %d)", a, b)
	case compile.OpCallNative:
		test("CallNative(%d, %d, %d)", a, b, c)
	case compile.OpCreate:
		call("Create(%d, %d, %d)", a, b, c)
	case compile.OpActivate:
		test("Activate(%d)", a)

	case compile.OpScanBegin:
		test("ScanBegin(%d, %d, %d)", a, b, pc)
	case compile.OpScanEnd:
		test("ScanEnd(%d, %d)", b, pc)
	case compile.OpScanLeave:
		call("ScanLeave(%d, %d)", a, b)
	case compile.OpScanResume:
		call("ScanResume(%d, %d)", a, b)
	case compile.OpScanVar:
		call("ScanVar(%d)", a)
	default:
		panic("translate: no emission for opcode " + in.Op.Name())
	}
}

// constants spells a constant pool in Go: literals as themselves, the
// stand-ins for builtins and natives as the lookups that bind them.
func (e *emitter) constants(consts []value.V) []string {
	out := make([]string, len(consts))
	for i, k := range consts {
		if expr, ok := e.consts[k]; ok {
			out[i] = expr
			continue
		}
		switch x := k.(type) {
		case value.Integer:
			out[i] = fmt.Sprintf("intLit(%q)", x.Image())
		case value.Real:
			out[i] = "value.Real(" + strconv.FormatFloat(float64(x), 'g', -1, 64) + ")"
		case value.String:
			out[i] = fmt.Sprintf("value.String(%q)", string(x))
		case *value.Cset:
			out[i] = fmt.Sprintf("value.NewCset(%q)", x.Members())
		default:
			panic(fmt.Sprintf("translate: no spelling for constant %s", value.Image(k)))
		}
	}
	return out
}

func quoteAll(names []string) string {
	q := make([]string, len(names))
	for i, n := range names {
		q[i] = strconv.Quote(n)
	}
	return "[]string{" + strings.Join(q, ", ") + "}"
}
