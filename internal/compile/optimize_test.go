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
		slots   int // the slots the last procedure keeps; 0 leaves them unchecked
	}{
		// Rule 1 fires on the loop body and on the statements around it;
		// only the every head's mark, which no cut names, stays.
		{"mark-cut-fires", `def f(n) { s := 0; every i := 1 to n do s +:= i; return s; }`,
			[]string{"f(10)", "f(0)"}, compile.OpMark, 1, 0},
		// The conditional's own pair goes (its test cannot fail), but the
		// statement around it holds the jump over the else branch and that
		// branch's join.
		{"region-with-jump-target", `def f(x) { s := if x then 2 else 3; return s; }`,
			[]string{"f(1)", "f(&null)"}, compile.OpMark, 1, 0},
		// break cuts the body's cell too: the body keeps its pair.
		{"aux-cut-by-break", `def f(n) { s := 0; every i := 1 to n do { s +:= i; if i > 2 then break; }; return s; }`,
			[]string{"f(5)", "f(1)"}, compile.OpMark, 3, 0},
		{"aux-cut-by-next", `def f(n) { s := 0; every i := 1 to n do { if i % 2 == 0 then next; s +:= i; }; return s; }`,
			[]string{"f(7)"}, compile.OpMark, 3, 0},
		// A mark that rule 1 deletes hands the edges into it on to the
		// instruction after it: here the then branch's jump over the else
		// branch, and the failed test's jump past the then branch, enter
		// return x's load, so the other path's store, pop and reload stay
		// (the second load.slot is the test's).
		{"join-after-deleted-mark", `def f(c) { if c > 0 then x := 1 else x := 2; return x; }`,
			[]string{"f(1)", "f(0)"}, compile.OpLoadSlot, 2, 0},
		{"join-after-failed-test", `def f(b) { x := 5; if b > 0 then x := 1; return x; }`,
			[]string{"f(1)", "f(0)"}, compile.OpLoadSlot, 2, 0},
		// Rule 3 on a temporary; a boxed slot (shared with a bare <>) is
		// stored through its cell, never by bind.slot, and keeps its loads.
		{"reload-unboxed", `def f(L) { x := L[1]; return x; }`,
			[]string{"f([4])", "f([])"}, compile.OpBindSlot, 0, 0},
		{"reload-boxed", `def f() { x := 1; g := <> (x +:= 1); @g; y := x; return [x, y]; }`,
			[]string{"f()"}, compile.OpLoadBox, 2, 0},
		// Rule 5: a comparison whose result is used keeps cmp; one whose
		// result is popped becomes cmp.test.
		{"cmp-used", `def f(x) { return 1 < x; }`,
			[]string{"f(2)", "f(0)", `f("3")`}, compile.OpCmp, 1, 0},
		{"cmp-tested", `def f(x) { if 1 < x then return "yes"; return "no"; }`,
			[]string{"f(2)", "f(0)", `f("3")`, "f(2.5)"}, compile.OpCmpTest, 1, 0},
		// == and ~== decide in int64 only on two small integers; every
		// other pair goes to the kernel's string comparison.
		{"str-eq-pairs", `def f(a, b) { if a == b then return "eq"; return "ne"; }`,
			[]string{"f(3, 3)", "f(3, 4)", `f(0, "0")`, "f(1, 1.0)", "f(2^70, 2^70)",
				"f(2^70, 2^70 + 1)", "f(9223372036854775807, 9223372036854775807)", "f(-256, -256)"},
			compile.OpCmpTest, 1, 0},
		{"str-ne-pairs", `def f(a, b) { if a ~== b then return "ne"; return "eq"; }`,
			[]string{"f(3, 3)", "f(3, 4)", `f(0, "0")`, "f(1, 1.0)", "f(2^70, 2^70)"},
			compile.OpCmpTest, 1, 0},
		{"num-ne-real", `def f(a, b) { if a ~= b then return "ne"; return "eq"; }`,
			[]string{"f(1, 1.0)", "f(2, 2.5)", `f(3, "3")`, "f(2^70, 2^70)"},
			compile.OpCmpTest, 1, 0},
		// A raise inside an elided region comes at the same point, after
		// the same writes and results, on both evaluators (error 102).
		{"raise-in-elided-region", `def f(L) { s := 0; every x := !L do { write(x); s +:= x; suspend s; }; }`,
			[]string{`f([1, 2, "a", 4])`}, compile.OpMark, 4, 0},
		{"raise-in-elided-statement", `def f() { s := 1; write("before"); s +:= "a"; write("after"); return s; }`,
			[]string{"f()"}, compile.OpMark, 2, 0},
		// Rule 2: the return.fail a failed return expression would reach
		// goes with the mark rule 1 deleted, and so does the procedure's
		// closing one, after the return's fail; code after a raise goes.
		{"unreached-after-return", `def f(x) { if x > 1 then return x; return 0; }`,
			[]string{"f(2)", "f(1)"}, compile.OpReturnFail, 0, 0},
		{"unreached-after-raise", `def f(x) { write(x); write := x; write(2); return x; }`,
			[]string{"f(1)"}, compile.OpReturn, 0, 0},
		// A jump to the next pc falls through: the branch after it stays.
		{"jump-to-next-falls", `def f(x) { if x > 1 then break; return x; }`,
			[]string{"f(2)", "f(1)"}, compile.OpReturn, 1, 0},
		// Rules 7 and 8 read the slots live at each pc, over every edge
		// that re-enters the frame. A store whose only reader runs after
		// the frame re-enters a resume point stays: the next to-by value's,
		// a resumed generator call's and a failed test's mark handler's
		// (the else branch).
		{"live-only-across-to-by", `def f(n) { w := 0; every (v := (1 to n)) & write(w) & (w := v * 10); }`,
			[]string{"f(3)"}, compile.OpStoreSlot, 3, 3},
		{"live-only-across-call", "def gen(a, b) { suspend a to b; }\ndef f(n) { w := 0; every (v := gen(1, n)) & write(w) & (w := v * 10); }",
			[]string{"f(3)"}, compile.OpStoreSlot, 3, 3},
		{"live-only-across-mark", `def f(n) { w := 0; if (w := n * 10) & (n > 5) then write("big") else write(w); }`,
			[]string{"f(1)", "f(6)"}, compile.OpStoreSlot, 2, 2},
		// Two temporaries live at once keep a slot each: the inner to-by's
		// re-entry reads x_0 again after x_1 is bound.
		{"temporaries-across-to-by", `def f(n) { s := 0; every s +:= (1 to n) * (2 to 3); return s; }`,
			[]string{"f(3)", "f(0)"}, compile.OpBindSlot, 2, 4},
		// A local a |<> or |> site captures keeps its store and its own
		// slot; one a bare <> shares stays a boxed cell.
		{"captured-by-coexpr", `def f(n) { y := n + 1; write(y); c := |<> (y | y + 1); y := 0; return [@c, @c, y]; }`,
			[]string{"f(1)"}, compile.OpStoreSlot, 3, 5},
		{"captured-by-pipe", `def f(n) { y := n + 1; write(y); p := |> (y to y + 2); y := 0; return [@p, @p, y]; }`,
			[]string{"f(1)"}, compile.OpStoreSlot, 3, 5},
		{"boxed-by-bare-coexpr", `def f() { x := 1; g := <> (x +:= 1); @g; y := x; return [x, y]; }`,
			[]string{"f()"}, compile.OpBoxVar, 2, 3},
		// A dead store over L[i] goes, and suspend and return still hand
		// their consumer the value, not the variable: assigning to the
		// result raises as on the tree walk.
		{"dead-store-suspend", `def f(L) { suspend x := L[1]; }`,
			[]string{"f([4])", "f([])", "f([4]) := 9"}, compile.OpStoreSlot, 0, 1},
		{"dead-store-return", `def f(L) { return x := L[1]; }`,
			[]string{"f([4])", "f([])", "f([4]) := 9"}, compile.OpStoreSlot, 0, 1},
		// A dead store over L[i] whose next instruction keeps the operand
		// on the stack (here bind.slot, which the list's first element
		// binds) stays: only a next instruction that takes the top at once
		// as a value, as suspend and return do above, makes its
		// dereference redundant.
		{"dead-store-derefs", `def f(L) { return [x := L[1], L[1] := 9]; }`,
			[]string{"f([4])"}, compile.OpStoreSlot, 1, 0},
		// A dead store to a temporary over the value an arith pushed
		// (never a variable) goes even though the const after it leaves
		// the top alone: there is nothing to dereference. Only the
		// previous instruction tells: without it the product's and the
		// remainder's stores stay, beside c := 0's.
		{"dead-store-plain", `def f(n) { c := 0; every ((1 to n) * (1 to n)) % 7 == 0 do c +:= 1; return c; }`,
			[]string{"f(8)", "f(0)"}, compile.OpStoreSlot, 1, 4},
		// A pop that only a fail follows goes: the loop body's s +:= i
		// leaves its value to the fail, and only the first statement's pop
		// stays.
		{"pop-before-fail", `def f(n) { s := 0; every s +:= 1 to n; return s; }`,
			[]string{"f(4)", "f(0)"}, compile.OpPop, 1, 0},
		// Two temporaries never live at the same pc share a slot: three
		// slots for two parameters and two subscripts.
		{"temporaries-share", `def f(L, n) { L[n + 1 - 1] := 1; L[n + 2 - 2] := 2; return L; }`,
			[]string{"f([0, 0], 1)", "f([0], 2)"}, compile.OpBindSlot, 2, 3},
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
			if c.slots > 0 && len(code.Slots) != c.slots {
				t.Errorf("%d slots, want %d:\n%s", len(code.Slots), c.slots, code.Disassemble())
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

// TestAssignmentsProduceTheirVariable: an assignment produces its
// variable, as on the tree walk. An outer assignment sets it through an
// assignment to a name, or |e over one (the vm raised 205 on these), and
// its value is what the variable holds: &pos := 0 sets and gives the
// position past the end (the vm gave 0).
func TestAssignmentsProduceTheirVariable(t *testing.T) {
	const src = `def f() { A := 0; (A := 1) := 5; return A; }
def g() { A := 0; B := 1; (A :=: B) := 5; return [A, B]; }`
	for _, d := range []string{
		"f()", "g()",
		"{ A := 0; (A +:= 1) := 5; A }",
		"{ A := 0; (A <- 1) := 5; A }",
		`"0=" ? { (A := tab(upto("0"))) := "" }`,
		"(|A := 1) \\ 3",
		`"0=0" ? (&pos := 0)`, `"0=0" ? (&pos <- 0)`, `"0=0" ? (&pos +:= -1)`,
		`"0=0" ? (1 % (&pos <- 0))`, `"abc" ? { x := -1; (&pos :=: x) & [x, &pos] }`,
	} {
		walk, vm := evalTrace(t, src, d, false), evalTrace(t, src, d, true)
		if walk != vm {
			t.Errorf("%s: compiled trace\n%s\nwant the tree walk's\n%s", d, vm, walk)
		}
	}
}
