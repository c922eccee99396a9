package interp

import (
	"fmt"

	"junicon/internal/checkpoint"
	"junicon/internal/core"
	"junicon/internal/vm"
)

// Snapshot restore: the interpreter half of durable generators. A
// checkpoint blob records the expression its frame compiled from plus the
// names of every compiled procedure live in its call tower; restoring
// recompiles the expression in this interpreter (whose procedures must
// already be loaded — meta.Program is the caller's responsibility) and
// rehydrates the frame against the resulting Machine.

// ProcMachine returns the compiled Machine for a loaded procedure — the
// resolver checkpoint.Restore uses for child frames in a call tower.
func (in *Interp) ProcMachine(name string) (*vm.Machine, bool) {
	m, ok := in.vmMachines[name]
	return m, ok
}

// ExprMachine compiles a top-level expression to its Machine without
// instantiating a frame — the restore path's counterpart of EvalGen. It
// follows the same pipeline (parseExpr, compileTop) so the compiled unit is
// bytecode-identical to the one the snapshot was captured from.
func (in *Interp) ExprMachine(src string) (*vm.Machine, error) {
	norm, err := in.parseExpr(src)
	if err != nil {
		return nil, err
	}
	return in.compileTop(norm), nil
}

// RestoreSnapshot rebuilds a generator from a checkpoint blob, resuming
// mid-iteration. The caller loads meta.Program (if any) first —
// RestoreSnapshot only recompiles meta.Expr and rehydrates; the
// procedures of its call tower must have compiled (WithVM).
func (in *Interp) RestoreSnapshot(data []byte) (core.Gen, *checkpoint.Meta, error) {
	meta, err := checkpoint.Peek(data)
	if err != nil {
		return nil, nil, err
	}
	if meta.Expr == "" {
		return nil, nil, fmt.Errorf("interp: snapshot of %q has no source expression to restore from", meta.Name)
	}
	m, err := in.ExprMachine(meta.Expr)
	if err != nil {
		return nil, nil, fmt.Errorf("interp: restore: recompile %q: %w", meta.Expr, err)
	}
	fr, meta, err := checkpoint.Restore(data, m, in.ProcMachine)
	if err != nil {
		return nil, nil, err
	}
	return fr, meta, nil
}
