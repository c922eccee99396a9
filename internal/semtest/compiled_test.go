package semtest

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"junicon/internal/interp"
	"junicon/internal/value"
)

// TestDifferentialCompiledGrid is the bytecode vm's semantic gate: every
// corpus case evaluated under compiled execution — directly, through every
// buffer × batch cell of the transport grid, and on pooled workers — must
// reproduce the tree-walk sequential trace exactly: the trace is the
// language, and it must not move.
func TestDifferentialCompiledGrid(t *testing.T) {
	evaluatorGrid(t, "compiled", interp.WithVM())
}

// TestCompiledRandomExpressions drives the vm with three random grammars:
// the harness's finite-generator exprGen (products, calls, limits), the
// exported RandomExpr grammar (which also produces type errors, testing
// that raised errors reproduce at the same point in the trace) and
// StatefulExpr (reversible assignment, scanning, co-expressions, pipes,
// static counters) — the last both as a top-level expression, where its
// variables are globals, and as a procedure body, where they are frame
// slots. Each sample must match the tree-walk reference exactly.
func TestCompiledRandomExpressions(t *testing.T) {
	const prelude = `
def double(x) { return x * 2; }
` + StatefulPrelude
	iterations := 240
	if testing.Short() {
		iterations = 50
	}
	eg := &exprGen{rng: rand.New(rand.NewSource(11))}
	rng := rand.New(rand.NewSource(13))
	srng := rand.New(rand.NewSource(17))
	for i := 0; i < iterations; i++ {
		program, expr := prelude, eg.expr(3)
		switch i % 4 {
		case 1:
			expr = RandomExpr(rng, 3)
		case 2:
			expr = StatefulExpr(srng, 2)
		case 3:
			program += "def run() { suspend " + StatefulExpr(srng, 2) + "; }\n"
			expr = "run()"
		}
		c := Case{Name: fmt.Sprintf("compiled-rand-%d", i), Program: program, Expr: expr}
		ref := reference(t, c)
		got, err := Sequential(c, interp.WithVM())
		if err != nil {
			t.Fatalf("%s (%s) compiled: %v", c.Name, c.Expr, err)
		}
		if !got.Equal(ref) {
			t.Fatalf("%s: %s\n%s\ncompiled diverged:\nref = %s\ngot = %s", c.Name, c.Expr, program[len(prelude):], ref, got)
		}
	}
}

// TestScanRestoredAfterError pins the evaluation boundary: a runtime error
// raised inside a scan must not leave its environment current for the
// next evaluation in the same interpreter. After each error, both the
// tree walk and the compiled lane must read &subject and &pos as a fresh
// interpreter does.
func TestScanRestoredAfterError(t *testing.T) {
	const probe = `&subject || ":" || &pos`
	fresh, err := interp.New().Eval(probe, 1)
	if err != nil || len(fresh) != 1 {
		t.Fatalf("fresh probe: %v %v", fresh, err)
	}
	for _, opts := range [][]interp.Option{nil, {interp.WithVM()}} {
		in := interp.New(append([]interp.Option{interp.WithOutput(io.Discard)}, opts...)...)
		for _, s := range []string{
			`"abc" ? { move(1); 1/0 }`,
			`"xyz" ? (move(2) & [&subject, &pos, 1/0])`,
		} {
			if _, err := in.Eval(s, 10); err == nil {
				t.Fatalf("%s: no runtime error", s)
			}
			got, err := in.Eval(probe, 1)
			if err != nil || len(got) != 1 || value.Image(got[0]) != value.Image(fresh[0]) {
				t.Errorf("vm=%v: after %s, %s = %v (err %v), want %s", opts != nil, s, probe, got, err, value.Image(fresh[0]))
			}
		}
	}
}
