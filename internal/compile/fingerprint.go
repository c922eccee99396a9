package compile

import (
	"encoding/binary"
	"hash/fnv"

	"junicon/internal/value"
)

// Fingerprint hashes everything that determines a frame's state layout and
// instruction stream: the unit name, parameter count, slot and global
// names, aux-cell count, the instructions and the constant images. Two
// units with equal fingerprints interpret a snapshot's PC, slot array and
// choice stack identically, so a checkpoint taken against one can be
// rehydrated against the other (typically: the same source recompiled in a
// fresh process). Globals hash by name only — their *values* are part of
// the environment, not the layout, exactly as a co-expression environment
// snapshot copies locals but shares globals. Nested units hash in, so a
// changed create body changes its parent's fingerprint too.
func (c *Code) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	u32 := func(v int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	str := func(s string) {
		u32(int32(len(s)))
		h.Write([]byte(s))
	}
	str(c.Name)
	u32(int32(c.Params))
	u32(int32(c.NumAux))
	u32(int32(len(c.Slots)))
	for _, s := range c.Slots {
		str(s)
	}
	u32(int32(len(c.GlobalNames)))
	for _, g := range c.GlobalNames {
		str(g)
	}
	u32(int32(len(c.Instrs)))
	for _, in := range c.Instrs {
		u32(int32(in.Op))
		u32(in.A)
		u32(in.B)
		u32(in.C)
	}
	u32(int32(len(c.Consts)))
	for _, k := range c.Consts {
		// The image is stable for every literal the compiler interns
		// (numbers, strings, csets, procedures by name), which is what
		// distinguishes `1 to 10` from `1 to 20` under identical opcodes.
		str(value.TypeOf(k))
		str(value.Image(k))
	}
	u32(int32(len(c.Subs)))
	for _, sub := range c.Subs {
		fp := sub.Fingerprint()
		u32(int32(fp))
		u32(int32(fp >> 32))
	}
	return h.Sum64()
}
