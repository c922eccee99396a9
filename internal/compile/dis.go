package compile

import (
	"fmt"
	"strings"

	"junicon/internal/value"
)

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
			fmt.Fprintf(b, " [%d]=%s", i, g)
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
		fmt.Fprintf(b, "  %4d: %-*s%s\n", pc, mnemonicColumn, in.Op.Name(), c.operands(in))
	}
}

// mnemonicColumn is the width of the listing's mnemonic column: the
// longest mnemonic in the opcode table plus one space, so no operand runs
// into its opcode.
var mnemonicColumn = func() int {
	n := 0
	for _, info := range ops {
		n = max(n, len(info.name))
	}
	return n + 1
}()

// operands renders one instruction's operands from the opcode table: the
// numbers A and B stand for (the first padded when more follows), then,
// after a semicolon, what A, B and C name, through the opcode's note
// format when it has one.
func (c *Code) operands(in Instr) string {
	var nums []string
	var notes []any
	width := 0
	for i, r := range in.Op.roles() {
		num, w, note := c.operand(r, *in.operands()[i])
		if num != "" && i < 2 {
			if len(nums) == 0 {
				width = w
			}
			nums = append(nums, num)
		}
		if note != "" {
			notes = append(notes, note)
		}
	}
	if len(nums) > 1 || len(nums) == 1 && len(notes) > 0 {
		nums[0] = fmt.Sprintf("%-*s", width, nums[0])
	}
	s := strings.Join(nums, " ")
	if len(notes) > 0 {
		format := ops[in.Op].note
		if format == "" {
			format = "%s"
		}
		s = strings.TrimPrefix(s+" ; "+fmt.Sprintf(format, notes...), " ")
	}
	return s
}

// operand renders one operand of role r and value v: the number the
// listing shows, the width it pads to, and a note naming what it is.
func (c *Code) operand(r role, v int32) (num string, width int, note string) {
	n := fmt.Sprint(v)
	switch r {
	case rolePC:
		return "->" + n, 6, ""
	case roleSlot:
		return n, 6, c.slotName(v)
	case roleGlobal:
		return n, 6, c.globalName(v)
	case roleConst:
		return n, 6, c.constImage(v)
	case roleArith, roleCmp, roleUnary:
		return n, 6, opSpelling(operators[r], int(v))
	case roleError:
		return n, 6, ""
	case roleCount:
		return n, 0, ""
	case roleAux:
		return "aux=" + n, 6, ""
	case roleOuter:
		return "outer=" + n, 0, ""
	case roleInner:
		return "inner=" + n, 0, ""
	case roleArgc:
		return "argc=" + n, 7, ""
	case roleSub:
		return "sub=" + n, 0, ""
	case roleTarget:
		return "", 0, c.targetName(v)
	case roleMode:
		return "", 0, createKind(v)
	case roleKeyword:
		return "", 0, [2]string{"&subject", "&pos"}[v&1]
	case roleTransmit:
		if v != 0 {
			return "transmit", 0, ""
		}
	case roleRefs, roleArms, roleLeave:
		if v != 0 {
			return "", 0, flagNotes[r]
		}
	}
	return "", 0, ""
}

// operators lists the spellings an operator-index role indexes.
var operators = map[role][]string{roleArith: ArithNames, roleCmp: CmpNames, roleUnary: UnaryNames}

// flagNotes is how the listing names a flag that is set.
var flagNotes = map[role]string{roleRefs: "references", roleArms: "resumable", roleLeave: "deref top, keep for resume"}

// createKind names create's mode operand (C).
func createKind(mode int32) string {
	switch {
	case mode == PipeInline:
		return "inline pipe"
	case mode == PipeDefault:
		return "pipe"
	case mode == CreateFirstClass:
		return "first-class, shared cells"
	case mode > 0:
		return fmt.Sprintf("pipe buffer=%d", mode)
	}
	return "co-expression"
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
