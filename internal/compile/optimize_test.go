package compile_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"junicon/internal/compile"
	"junicon/internal/core"
	"junicon/internal/interp"
	"junicon/internal/value"
)

// evalTrace runs expr over program and renders what a user sees, in
// order: each write, each result, and a raised error — on the tree walk,
// or compiled.
func evalTrace(t *testing.T, program, expr string, compiled bool) string {
	t.Helper()
	var out strings.Builder
	opts := []interp.Option{interp.WithOutput(&out)}
	if compiled {
		opts = append(opts, interp.WithVM())
	}
	in := interp.New(opts...)
	if err := in.LoadProgram(program); err != nil {
		t.Fatalf("load: %v", err)
	}
	g, err := in.EvalGen(expr)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	err = core.Protect(func() {
		for i := 0; i < 100; i++ {
			v, ok := g.Next()
			if !ok {
				return
			}
			fmt.Fprintf(&out, "=> %s\n", value.Image(value.Deref(v)))
		}
	})
	if err != nil {
		fmt.Fprintf(&out, "! %v\n", err)
	}
	return out.String()
}

// TestPassRulesAtTheirEdges compiles one small procedure per row and
// counts the opcode its rule removes or makes: whether the rule fires is
// part of the row. Every driver's trace — writes, results and a raised
// error at the point it is raised — must then equal the tree walk's.
func TestPassRulesAtTheirEdges(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		drivers []string
		op      compile.Op // the opcode the row counts in the last procedure
		count   int
	}{
		// Rule 1 fires on the loop body and on the statements around it;
		// only the every head's mark, which no cut names, stays.
		{"mark-cut-fires", `def f(n) { s := 0; every i := 1 to n do s +:= i; return s; }`,
			[]string{"f(10)", "f(0)"}, compile.OpMark, 1},
		// The conditional's own pair goes (its test cannot fail), but the
		// statement around it holds the jump over the else branch and that
		// branch's join.
		{"region-with-jump-target", `def f(x) { s := if x then 2 else 3; return s; }`,
			[]string{"f(1)", "f(&null)"}, compile.OpMark, 1},
		// break cuts the body's cell too: the body keeps its pair.
		{"aux-cut-by-break", `def f(n) { s := 0; every i := 1 to n do { s +:= i; if i > 2 then break; }; return s; }`,
			[]string{"f(5)", "f(1)"}, compile.OpMark, 3},
		{"aux-cut-by-next", `def f(n) { s := 0; every i := 1 to n do { if i % 2 == 0 then next; s +:= i; }; return s; }`,
			[]string{"f(7)"}, compile.OpMark, 3},
		// A mark that rule 1 deletes hands the edges into it on to the
		// instruction after it: here the then branch's jump over the else
		// branch, and the failed test's jump past the then branch, enter
		// return x's load, so the other path's store, pop and reload stay
		// (the second load.slot is the test's).
		{"join-after-deleted-mark", `def f(c) { if c > 0 then x := 1 else x := 2; return x; }`,
			[]string{"f(1)", "f(0)"}, compile.OpLoadSlot, 2},
		{"join-after-failed-test", `def f(b) { x := 5; if b > 0 then x := 1; return x; }`,
			[]string{"f(1)", "f(0)"}, compile.OpLoadSlot, 2},
		// Rule 3 on a temporary; a boxed slot (shared with a bare <>) is
		// stored through its cell, never by bind.slot, and keeps its loads.
		{"reload-unboxed", `def f(L) { x := L[1]; return x; }`,
			[]string{"f([4])", "f([])"}, compile.OpBindSlot, 0},
		{"reload-boxed", `def f() { x := 1; g := <> (x +:= 1); @g; y := x; return [x, y]; }`,
			[]string{"f()"}, compile.OpLoadBox, 2},
		// Rule 5: a comparison whose result is used keeps cmp; one whose
		// result is popped becomes cmp.test.
		{"cmp-used", `def f(x) { return 1 < x; }`,
			[]string{"f(2)", "f(0)", `f("3")`}, compile.OpCmp, 1},
		{"cmp-tested", `def f(x) { if 1 < x then return "yes"; return "no"; }`,
			[]string{"f(2)", "f(0)", `f("3")`, "f(2.5)"}, compile.OpCmpTest, 1},
		// == and ~== decide in int64 only on two small integers; every
		// other pair goes to the kernel's string comparison.
		{"str-eq-pairs", `def f(a, b) { if a == b then return "eq"; return "ne"; }`,
			[]string{"f(3, 3)", "f(3, 4)", `f(0, "0")`, "f(1, 1.0)", "f(2^70, 2^70)",
				"f(2^70, 2^70 + 1)", "f(9223372036854775807, 9223372036854775807)", "f(-256, -256)"},
			compile.OpCmpTest, 1},
		{"str-ne-pairs", `def f(a, b) { if a ~== b then return "ne"; return "eq"; }`,
			[]string{"f(3, 3)", "f(3, 4)", `f(0, "0")`, "f(1, 1.0)", "f(2^70, 2^70)"},
			compile.OpCmpTest, 1},
		{"num-ne-real", `def f(a, b) { if a ~= b then return "ne"; return "eq"; }`,
			[]string{"f(1, 1.0)", "f(2, 2.5)", `f(3, "3")`, "f(2^70, 2^70)"},
			compile.OpCmpTest, 1},
		// A raise inside an elided region comes at the same point, after
		// the same writes and results, on both evaluators (error 102).
		{"raise-in-elided-region", `def f(L) { s := 0; every x := !L do { write(x); s +:= x; suspend s; }; }`,
			[]string{`f([1, 2, "a", 4])`}, compile.OpMark, 4},
		{"raise-in-elided-statement", `def f() { s := 1; write("before"); s +:= "a"; write("after"); return s; }`,
			[]string{"f()"}, compile.OpMark, 2},
		// Rule 2: the return.fail a failed return expression would reach
		// goes with the mark rule 1 deleted, and so does the procedure's
		// closing one, after the return's fail; code after a raise goes.
		{"unreached-after-return", `def f(x) { if x > 1 then return x; return 0; }`,
			[]string{"f(2)", "f(1)"}, compile.OpReturnFail, 0},
		{"unreached-after-raise", `def f(x) { write(x); write := x; write(2); return x; }`,
			[]string{"f(1)"}, compile.OpReturn, 0},
		// A jump to the next pc falls through: the branch after it stays.
		{"jump-to-next-falls", `def f(x) { if x > 1 then break; return x; }`,
			[]string{"f(2)", "f(1)"}, compile.OpReturn, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, err := compileLast(t, c.src, testEnv)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			n := 0
			for _, in := range code.Instrs {
				if in.Op == c.op {
					n++
				}
			}
			if n != c.count {
				t.Errorf("%d %s, want %d:\n%s", n, c.op.Name(), c.count, code.Disassemble())
			}
			for _, d := range c.drivers {
				walk, vm := evalTrace(t, c.src, d, false), evalTrace(t, c.src, d, true)
				if walk != vm {
					t.Errorf("%s: compiled trace\n%s\nwant the tree walk's\n%s", d, vm, walk)
				}
			}
		})
	}
}

// TestRandomProceduresMatchTheTreeWalk runs random procedures whose
// statements join control in random ways, compiled and on the tree walk,
// and requires the same trace for each argument.
func TestRandomProceduresMatchTheTreeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for range 200 {
		src := compile.RandomProc(rng)
		for _, d := range []string{"f(-1)", "f(0)", "f(1)"} {
			walk, vm := evalTrace(t, src, d, false), evalTrace(t, src, d, true)
			if walk != vm {
				t.Fatalf("%s\n%s: compiled trace\n%s\nwant the tree walk's\n%s", src, d, vm, walk)
			}
		}
	}
}
