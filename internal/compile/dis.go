package compile

import (
	"fmt"
	"strings"

	"junicon/internal/value"
)

// opNames maps opcodes to their listing mnemonics.
var opNames = [opCount]string{
	OpNop:          "nop",
	OpConst:        "const",
	OpNull:         "null",
	OpPop:          "pop",
	OpPopN:         "pop.n",
	OpLoadSlot:     "load.slot",
	OpStoreSlot:    "store.slot",
	OpBindSlot:     "bind.slot",
	OpLoadGlobal:   "load.global",
	OpStoreGlobal:  "store.global",
	OpJump:         "jump",
	OpFail:         "fail",
	OpYield:        "yield",
	OpReturn:       "return",
	OpReturnFail:   "return.fail",
	OpMark:         "mark",
	OpCut:          "cut",
	OpFork:         "fork",
	OpRepAlt:       "rep.alt",
	OpRepNote:      "rep.note",
	OpLimitBegin:   "limit.begin",
	OpLimitCheck:   "limit.check",
	OpInitOnce:     "init.once",
	OpArith:        "arith",
	OpCmp:          "cmp",
	OpUnary:        "unary",
	OpNullTest:     "null.test",
	OpNonNullTest:  "nonnull.test",
	OpBang:         "bang",
	OpToBy:         "to.by",
	OpCaseEq:       "case.eq",
	OpMakeList:     "make.list",
	OpIndex:        "index",
	OpIndexVar:     "index.var",
	OpSection:      "section",
	OpField:        "field",
	OpFieldVar:     "field.var",
	OpStoreVar:     "store.var",
	OpAugVar:       "aug.var",
	OpCmpAugVar:    "cmp.aug.var",
	OpAugSlot:      "aug.slot",
	OpCmpAugSlot:   "cmp.aug.slot",
	OpAugGlobal:    "aug.global",
	OpCmpAugGlobal: "cmp.aug.global",
	OpRevAssign:    "rev.assign",
	OpSwap:         "swap",
	OpRevSwap:      "rev.swap",
	OpCall:         "call",
	OpCall1:        "call1",
	OpCallNative:   "call.native",
	OpCreate:       "create",
	OpActivate:     "activate",
	OpScanBegin:    "scan.begin",
	OpScanEnd:      "scan.end",
	OpScanLeave:    "scan.leave",
	OpScanResume:   "scan.resume",
	OpScanVar:      "scan.var",
	OpLoadBox:      "load.box",
	OpStoreBox:     "store.box",
	OpBoxVar:       "box.var",
	OpGlobalVar:    "global.var",
	OpRandom:       "random",
	OpCmpTest:      "cmp.test",
	OpRaise:        "raise",
}

// Name returns the opcode's listing mnemonic.
func (op Op) Name() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", op)
}

// Disassemble renders the unit as a readable listing: a header naming the
// unit, the slot table (the frame layout), the resume-point table (every
// pc a suspended or failed frame can re-enter), and the instructions with
// symbolic operands — slot names, constant images, global names, operator
// spellings and jump targets. Nested units (create bodies) follow their
// parent, indented.
func (c *Code) Disassemble() string {
	var b strings.Builder
	c.disassemble(&b)
	for _, sub := range c.Subs {
		for _, line := range strings.SplitAfter(sub.Disassemble(), "\n") {
			if line != "" {
				b.WriteString("    " + line)
			}
		}
	}
	return b.String()
}

func (c *Code) disassemble(b *strings.Builder) {
	name := c.Name
	if name == "" {
		name = "(expression)"
	}
	fmt.Fprintf(b, "unit %s  params=%d slots=%d aux=%d\n",
		name, c.Params, len(c.Slots), c.NumAux)
	if len(c.Slots) > 0 {
		b.WriteString("  slots:  ")
		for i, s := range c.Slots {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(b, "[%d]=%s", i, s)
		}
		b.WriteByte('\n')
	}
	if len(c.GlobalNames) > 0 {
		b.WriteString("  globals:")
		for i, g := range c.GlobalNames {
			if i > 0 {
				b.WriteByte(' ')
			} else {
				b.WriteByte(' ')
			}
			fmt.Fprintf(b, "[%d]=%s", i, g)
		}
		b.WriteByte('\n')
	}
	if len(c.Resumes) > 0 {
		b.WriteString("  resume: ")
		for i, r := range c.Resumes {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(b, "%d(%s)", r.PC, r.Kind)
		}
		b.WriteByte('\n')
	}
	for pc, in := range c.Instrs {
		fmt.Fprintf(b, "  %4d: %-14s%s\n", pc, in.Op.Name(), c.operands(in))
	}
}

// operands renders one instruction's operands symbolically.
func (c *Code) operands(in Instr) string {
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("%-6d ; %s", in.A, c.constImage(in.A))
	case OpLoadSlot, OpStoreSlot, OpBindSlot, OpLoadBox, OpStoreBox, OpBoxVar:
		return fmt.Sprintf("%-6d ; %s", in.A, c.slotName(in.A))
	case OpLoadGlobal, OpStoreGlobal, OpGlobalVar:
		return fmt.Sprintf("%-6d ; %s", in.A, c.globalName(in.A))
	case OpJump, OpFork:
		return fmt.Sprintf("->%d", in.A)
	case OpMark, OpRepAlt:
		return fmt.Sprintf("->%-4d aux=%d", in.A, in.B)
	case OpRepNote, OpCut, OpLimitBegin, OpLimitCheck:
		return fmt.Sprintf("aux=%d", in.B)
	case OpBang, OpToBy:
		if in.A != 0 {
			return fmt.Sprintf("aux=%-2d ; references", in.B)
		}
		return fmt.Sprintf("aux=%d", in.B)
	case OpArith, OpAugVar:
		return fmt.Sprintf("%-6d ; %s", in.A, opSpelling(ArithNames, int(in.A)))
	case OpCmp, OpCmpTest, OpCmpAugVar:
		return fmt.Sprintf("%-6d ; %s", in.A, opSpelling(CmpNames, int(in.A)))
	case OpUnary:
		return fmt.Sprintf("%-6d ; %s", in.A, opSpelling(UnaryNames, int(in.A)))
	case OpAugSlot:
		return fmt.Sprintf("%-6d ; %s %s:=", in.A, c.slotName(in.A), opSpelling(ArithNames, int(in.C)))
	case OpCmpAugSlot:
		return fmt.Sprintf("%-6d ; %s %s:=", in.A, c.slotName(in.A), opSpelling(CmpNames, int(in.C)))
	case OpAugGlobal:
		return fmt.Sprintf("%-6d ; %s %s:=", in.A, c.globalName(in.A), opSpelling(ArithNames, int(in.C)))
	case OpCmpAugGlobal:
		return fmt.Sprintf("%-6d ; %s %s:=", in.A, c.globalName(in.A), opSpelling(CmpNames, int(in.C)))
	case OpCaseEq:
		return fmt.Sprintf("%-6d ; subject %s", in.A, c.slotName(in.A))
	case OpPopN, OpMakeList:
		return fmt.Sprintf("%d", in.A)
	case OpField, OpFieldVar:
		return fmt.Sprintf("%-6d ; .%s", in.A, c.constImage(in.A))
	case OpCall, OpCall1:
		return fmt.Sprintf("argc=%-2d aux=%d", in.A, in.B)
	case OpCallNative:
		return fmt.Sprintf("argc=%-2d aux=%d ; %s", in.A, in.B, c.constImage(in.C))
	case OpInitOnce:
		return fmt.Sprintf("->%-4d ; %s", in.A, c.globalName(in.C))
	case OpRevAssign:
		return fmt.Sprintf("aux=%-2d ; %s <-", in.B, c.targetName(in.A))
	case OpSwap:
		return fmt.Sprintf("aux=%-2d ; %s :=: %s", in.B, c.targetName(in.A), c.targetName(in.C))
	case OpRevSwap:
		return fmt.Sprintf("aux=%-2d ; %s <-> %s", in.B, c.targetName(in.A), c.targetName(in.C))
	case OpCreate:
		kind := "co-expression"
		switch {
		case in.C == PipeInline:
			kind = "inline pipe"
		case in.C == PipeDefault:
			kind = "pipe"
		case in.C == CreateFirstClass:
			kind = "first-class, shared cells"
		case in.C > 0:
			kind = fmt.Sprintf("pipe buffer=%d", in.C)
		}
		return fmt.Sprintf("argc=%-2d sub=%d ; %s", in.A, in.B, kind)
	case OpActivate:
		if in.A != 0 {
			return "transmit"
		}
	case OpScanBegin:
		if in.A != 0 {
			return fmt.Sprintf("aux=%-2d ; resumable", in.B)
		}
		return fmt.Sprintf("aux=%d", in.B)
	case OpScanEnd:
		return fmt.Sprintf("aux=%d", in.B)
	case OpScanLeave:
		if in.A == LeaveToResume {
			return fmt.Sprintf("aux=%-2d ; deref top, keep for resume", in.B)
		}
		return fmt.Sprintf("aux=%d", in.B)
	case OpScanResume:
		return fmt.Sprintf("outer=%d inner=%d", in.A, in.B)
	case OpScanVar:
		return [2]string{"; &subject", "; &pos"}[in.A&1]
	case OpRaise:
		return fmt.Sprintf("%-6d ; %s", in.A, c.constImage(in.C))
	}
	return ""
}

// targetName renders a target operand (see Target).
func (c *Code) targetName(t int32) string {
	switch kind, i := SplitTarget(t); kind {
	case TargetSlot:
		return c.slotName(i)
	case TargetGlobal:
		return c.globalName(i)
	}
	return "(ref)"
}

func (c *Code) slotName(i int32) string {
	if int(i) < len(c.Slots) {
		return c.Slots[i]
	}
	return "?"
}

func (c *Code) globalName(i int32) string {
	if int(i) < len(c.GlobalNames) {
		return c.GlobalNames[i]
	}
	return "?"
}

func (c *Code) constImage(i int32) string {
	if int(i) < len(c.Consts) {
		return value.Image(c.Consts[i])
	}
	return "?"
}

func opSpelling(names []string, i int) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return "?"
}
