package main

import (
	"fmt"
	"io"
	"os"

	"junicon"
	"junicon/internal/checkpoint"
	"junicon/internal/core"
	"junicon/internal/value"
)

// Durable-generator surfaces of the CLI and REPL: -snapshot / -resume and
// :snap / :resume capture a suspended compiled generator into a versioned
// snapshot file and resume it later — in another invocation, another
// session, or another machine (the same blob rides the remote protocol's
// resume-mode OPEN).

// snapshotExpr evaluates expr on in, prints up to max results, then
// snapshots the generator's remaining state — mid-iteration, exactly where
// printing stopped — to file. program is the declaration source the
// snapshot must carry so resumption can rebuild the procedure table.
func snapshotExpr(in *junicon.Interp, program, expr, file string, max int, out io.Writer) error {
	g, err := in.EvalGen(expr)
	if err != nil {
		return err
	}
	produced := 0
	if err := core.Protect(func() {
		for max <= 0 || produced < max {
			v, ok := g.Next()
			if !ok {
				return
			}
			fmt.Fprintln(out, junicon.Image(value.Deref(v)))
			produced++
		}
	}); err != nil {
		return err
	}
	blob, err := checkpoint.Snapshot(g, checkpoint.Meta{
		Program:  program,
		Expr:     expr,
		Produced: uint64(produced),
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(file, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "-- snapshot: %d values delivered, %d bytes to %s\n", produced, len(blob), file)
	return nil
}

// resumeSnapshot restores the snapshot in file into a fresh session built
// from the snapshot's own program text and prints up to max further
// results. The value counter continues from where the snapshot left off.
func resumeSnapshot(file string, max int, out io.Writer) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	in := junicon.NewInterp(out)
	return resumeInto(in, data, max, out)
}

// resumeInto restores snapshot data into in (loading the snapshot's
// declarations first) and prints the continued sequence.
func resumeInto(in *junicon.Interp, data []byte, max int, out io.Writer) error {
	meta, err := checkpoint.Peek(data)
	if err != nil {
		return err
	}
	if meta.Program != "" {
		if err := in.LoadProgram(meta.Program); err != nil {
			return fmt.Errorf("snapshot program: %w", err)
		}
	}
	g, meta, err := in.RestoreSnapshot(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "-- resuming %q after %d values\n", meta.Expr, meta.Produced)
	printed := 0
	if err := core.Protect(func() {
		for max <= 0 || printed < max {
			v, ok := g.Next()
			if !ok {
				return
			}
			fmt.Fprintln(out, junicon.Image(value.Deref(v)))
			printed++
		}
	}); err != nil {
		return err
	}
	if printed == 0 {
		fmt.Fprintln(out, "-- fails")
	}
	return nil
}
