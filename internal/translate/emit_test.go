package translate

import (
	"fmt"
	"strings"
	"testing"

	"junicon/internal/compile"
	"junicon/internal/value"
)

// TestEveryOpcodeIsDescribed: every opcode but a retired one has an entry
// in the compile package's opcode table — a mnemonic, and a listing whose
// notes its note format spells in full — and a translation. An opcode
// added to the instruction set without them fails here, not when a
// program first reaches it.
func TestEveryOpcodeIsDescribed(t *testing.T) {
	code := &compile.Code{
		Consts:      []value.V{value.String("k")},
		Slots:       []string{"s"},
		GlobalNames: []string{"g"},
	}
	// The reference twins of index and field, aug and cmp.aug on a slot
	// and on a global.
	retired := map[compile.Op]bool{33: true, 36: true, 40: true, 41: true, 42: true, 43: true}
	for op := range compile.Op(compile.NumOps) {
		if retired[op] {
			continue
		}
		name := op.Name()
		if strings.HasPrefix(name, "op(") {
			t.Errorf("opcode %d has no table entry", op)
			continue
		}
		for _, v := range []int32{0, 1} {
			code.Instrs = []compile.Instr{{Op: op, A: v, B: v, C: v}}
			listing := code.Disassemble()
			if !strings.Contains(listing, ": "+name) || strings.Contains(listing, "%!") {
				t.Errorf("%s: listing %q", name, listing)
			}
		}
		if err := emits(compile.Instr{Op: op}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// emits translates one instruction, reporting the translator's panic.
func emits(in compile.Instr) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	(&emitter{}).instr(0, in)
	return nil
}
