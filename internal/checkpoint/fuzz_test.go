package checkpoint_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"junicon/internal/checkpoint"
	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/interp"
	"junicon/internal/semtest"
	"junicon/internal/value"
	"junicon/internal/vm"
)

// vmInterpWith is vmInterp over testing.TB (fuzz seeding runs under
// *testing.F) and an arbitrary program.
func vmInterpWith(t testing.TB, prog string) *interp.Interp {
	t.Helper()
	in := interp.New(interp.WithOutput(io.Discard), interp.WithVM())
	if prog != "" {
		if err := in.LoadProgram(prog); err != nil {
			t.Fatalf("load: %v", err)
		}
	}
	return in
}

// validBlob snapshots a mid-iteration generator of prog's expr after cut
// values, for seeding the fuzzers and pinning the format.
func validBlob(t testing.TB, prog, expr string, cut int) []byte {
	t.Helper()
	in := vmInterpWith(t, prog)
	g, err := in.EvalGen(expr)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	for i := 0; i < cut; i++ {
		g.Next()
	}
	blob, err := checkpoint.Snapshot(g, checkpoint.Meta{
		Program: prog, Expr: expr, Produced: uint64(cut),
	})
	if err != nil {
		t.Fatalf("seed snapshot %q: %v", expr, err)
	}
	return blob
}

// FuzzSnapshotRoundTrip feeds arbitrary bytes — seeded with genuine blobs
// and targeted corruptions of them — through the full decode path: Peek,
// then a restore into a fresh interpreter, then a bounded drain of the
// resumed generator. Truncations, bit flips and forged headers must error
// loudly; nothing may panic, hang, or resume into a wrong state silently.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, expr := range []string{"1 to 8", "gen(2, 6)", "outer(4)", "summing(6)"} {
		blob := validBlob(f, program, expr, 2)
		f.Add(blob)
		// Targeted corruptions: every class the decoder must reject.
		trunc := blob[:len(blob)/2]
		f.Add(trunc)
		f.Add(blob[:5])
		forged := append([]byte(nil), blob...)
		forged[4] = 0x7f // unknown version
		f.Add(forged)
		flip := append([]byte(nil), blob...)
		flip[len(flip)-1] ^= 0x01
		f.Add(flip)
	}
	f.Add([]byte{})
	f.Add([]byte("JSNP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		meta, err := checkpoint.Peek(data)
		if err != nil {
			return // loud rejection is the expected outcome for junk
		}
		if meta == nil {
			t.Fatal("Peek returned nil meta with nil error")
		}
		in := interp.New(interp.WithOutput(io.Discard), interp.WithVM())
		if meta.Program != "" {
			if err := in.LoadProgram(meta.Program); err != nil {
				return // a forged program that fails to load is a loud rejection
			}
		}
		g, _, err := in.RestoreSnapshot(data)
		if err != nil {
			return // structural validation rejected it: fine
		}
		// A restore that passed validation must yield a generator that can
		// be driven without panics, bounded by a drain cap (a forged blob
		// must not buy an infinite loop inside the harness).
		_ = core.Protect(func() {
			for i := 0; i < 200; i++ {
				if _, ok := g.Next(); !ok {
					return
				}
			}
		})
	})
}

// FuzzSnapshotTree fuzzes a snapshot's wire body under a freshly sealed
// header, so a mutation reaches the metadata and frame-tree readers instead
// of failing the checksum, as nearly every mutation FuzzSnapshotRoundTrip
// makes does. The seeds are the golden blobs' bodies, restored against the
// program they were taken from. A malformed tree must fail loudly; one
// that reads must restore a frame that can be driven without a panic.
func FuzzSnapshotTree(f *testing.F) {
	for _, c := range goldenBlobs {
		f.Add(readGolden(f, c.file)[9:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<16 {
			t.Skip("oversized input")
		}
		blob := seal(body)
		meta, err := checkpoint.Peek(blob)
		if err != nil {
			return
		}
		// The program is the seeds' own: a mutated one could run anything
		// as it loads.
		in := vmInterpWith(t, lowered)
		m, err := in.ExprMachine(meta.Expr)
		if err != nil {
			return
		}
		g, _, err := checkpoint.Restore(blob, m, in.ProcMachine)
		if err != nil {
			return
		}
		_ = core.Protect(func() {
			for i := 0; i < 200; i++ {
				if _, ok := g.Next(); !ok {
					return
				}
			}
		})
	})
}

// referenceWithin runs the reference lane, giving up after d. Goal-directed
// search need not end — in {c := |0 > (1 to 4); [@c < *c]} the comparison
// backtracks into |0 for good — and an expression with no sequence to
// compare against has no suffix to check. An abandoned evaluation keeps
// its goroutine until the fuzzing process exits.
func referenceWithin(c semtest.Case, d time.Duration) (semtest.Result, error) {
	type outcome struct {
		ref semtest.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		ref, err := semtest.Sequential(c)
		done <- outcome{ref, err}
	}()
	select {
	case o := <-done:
		return o.ref, o.err
	case <-time.After(d):
		return semtest.Result{}, fmt.Errorf("no result after %v", d)
	}
}

// drawsRandom reports whether expr's code, or that of a compiled
// procedure it can reach through a global, holds ?x, which draws on the
// process's random stream: the reference and the restored lane draw
// different values (a run drew ?{s:=200}).
func drawsRandom(in *interp.Interp, expr string) bool {
	m, err := in.ExprMachine(expr)
	if err != nil {
		return false
	}
	seen := map[*compile.Code]bool{}
	var draws func(code *compile.Code) bool
	draws = func(code *compile.Code) bool {
		if seen[code] {
			return false
		}
		seen[code] = true
		for _, in := range code.Instrs {
			if in.Op == compile.OpRandom {
				return true
			}
		}
		for _, sub := range code.Subs {
			if draws(sub) {
				return true
			}
		}
		for _, cell := range code.Globals {
			if p, ok := cell.Get().(*value.Proc); ok {
				if pm, ok := p.Impl.(*vm.Machine); ok && draws(pm.Code()) {
					return true
				}
			}
		}
		return false
	}
	return draws(m.Code())
}

// FuzzExprSnapshotAtYield is the property-based durability lane: a random
// generator expression, snapshotted at a random yield, restored into a
// fresh interpreter, must deliver exactly the reference suffix. Refusals
// (host generators, opaque values) are fine; wrong values are not.
func FuzzExprSnapshotAtYield(f *testing.F) {
	// The first sixteen seeds are what RandomExpr drew from source 11
	// before its leaves reached the integer edges; its present draws come
	// last, so every earlier seed keeps its place.
	for i, expr := range []string{
		"(5 to 5)",
		`((5 to 7 by 2) * ((&null <= 2) \ 1))`,
		`((3 to 1) | (not (if 4 then 5 else 2)))`,
		"(5 to 10)",
		`!"ab"`,
		`![((2 to 2) > (5 to 4)), (7 to 2 by 1)]`,
		`!"abab"`,
		`((("b" \ 3) - ("c" + "b")) * ![(3 <= 5), (if &null then "c" else "c")])`,
		`((("b" ~= 9) \ 0) | ((|(1 to 6)) \ 5))`,
		`(not (not ("a" <= &null)))`,
		`(!"abab" - (3 to 6 by 2))`,
		`((((|1) \ 5) \ 3) > (((|&null) \ 5) - ("b" & "a")))`,
		`((!["c", &null] \ 0) - (2 to 11))`,
		"(6 to 4 by 1)",
		`![((5 to 3 by 1) & (not 5)), (5 to 9)]`,
		`((|((1 to 5 by 3) | (&null \ 0))) \ 5)`,
	} {
		f.Add(expr, uint8(i))
	}
	f.Add("summing(4) + gen(1, 2)", uint8(3))
	// One seed per construct whose frame state PR 12 added (the procedures
	// are TestLoweredStateSnapshots'), then the stateful grammar at large.
	for i, expr := range []string{
		"ticks(5)", "bumps(4)", "undone()", "exchanged()", "refUndone()",
		`fields("ab cd ef")`, `nested("abcdef", "xyz")`, `scanned("abcdef")`,
		"stepped(3)", "piped(3)",
		"{ x := 0; ((x <- (1 to 3)) & (1 | 2)) | x }",
		`"abc" ? { &pos := 2; (1 to 2) + &pos }`,
	} {
		f.Add(expr, uint8(i))
	}
	srng := rand.New(rand.NewSource(17))
	for i := 0; i < 16; i++ {
		f.Add(semtest.StatefulExpr(srng, 2), uint8(i))
	}
	// A yield from a loop whose counter and accumulator are unboxed past
	// the interned integers (the procedure is TestLoweredStateSnapshots'),
	// then RandomExpr's draws with the integer edges among its leaves.
	f.Add("running(2000, 2006)", uint8(3))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 16; i++ {
		f.Add(semtest.RandomExpr(rng, 3), uint8(i))
	}
	f.Fuzz(func(t *testing.T, expr string, rawCut uint8) {
		if len(expr) > 512 {
			t.Skip("oversized input")
		}
		c := semtest.Case{Name: "fuzz", Program: program + lowered + semtest.StatefulPrelude, Expr: expr, Max: 100}
		ref, err := referenceWithin(c, 2*time.Second)
		if err != nil || ref.Failed {
			t.Skip("rejected, failing or unfinished under the reference lane")
		}
		if len(ref.Images) == 0 {
			t.Skip("empty sequence: nothing to cut")
		}
		cut := int(rawCut) % (len(ref.Images) + 1)
		in := vmInterpWith(t, c.Program)
		if drawsRandom(in, c.Expr) {
			t.Skip("draws on the random stream: no two lanes need agree")
		}
		g, err := in.EvalGen(c.Expr)
		if err != nil {
			t.Skip("vm lane rejected the expression")
		}
		var got []string
		derr := core.Protect(func() {
			for i := 0; i < cut; i++ {
				v, ok := g.Next()
				if !ok {
					return
				}
				got = append(got, value.Image(value.Deref(v)))
			}
		})
		if derr != nil || len(got) != cut {
			t.Skip("vm lane diverged before the cut; FuzzCompiledSemantics owns that property")
		}
		blob, err := checkpoint.Snapshot(g, checkpoint.Meta{
			Program: c.Program, Expr: c.Expr, Produced: uint64(cut),
		})
		if checkpoint.IsRefused(err) {
			t.Skip("conservative refusal")
		}
		if err != nil {
			t.Fatalf("snapshot at %d: %v", cut, err)
		}
		rg, _, err := vmInterpWith(t, c.Program).RestoreSnapshot(blob)
		if err != nil {
			t.Fatalf("restore at %d: %v", cut, err)
		}
		rerr := core.Protect(func() {
			// The reference stopped at Max values; an unbounded sequence
			// (|0) must stop at the same total here.
			for i := cut; i < c.Max; i++ {
				v, ok := rg.Next()
				if !ok {
					return
				}
				got = append(got, value.Image(value.Deref(v)))
			}
		})
		if rerr != nil {
			t.Fatalf("resumed drain raised: %v", rerr)
		}
		if len(got) != len(ref.Images) {
			t.Fatalf("%q cut %d: %d values, want %d\nref = %v\ngot = %v",
				expr, cut, len(got), len(ref.Images), ref.Images, got)
		}
		for i := range got {
			if got[i] != ref.Images[i] {
				t.Fatalf("%q cut %d diverged at %d:\nref = %v\ngot = %v",
					expr, cut, i, ref.Images, got)
			}
		}
	})
}
