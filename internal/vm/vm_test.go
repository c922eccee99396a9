package vm_test

import (
	"io"
	"regexp"
	"strings"
	"testing"

	"junicon/internal/core"
	"junicon/internal/interp"
	"junicon/internal/value"
	"junicon/internal/vm"
)

// vmInterp returns a compiled-execution interpreter (output discarded).
func vmInterp(t *testing.T, program string) *interp.Interp {
	t.Helper()
	in := interp.New(interp.WithOutput(io.Discard), interp.WithVM())
	if program != "" {
		if err := in.LoadProgram(program); err != nil {
			t.Fatalf("load: %v", err)
		}
	}
	return in
}

// plainInterp returns the tree-walk reference interpreter.
func plainInterp(t *testing.T, program string) *interp.Interp {
	t.Helper()
	in := interp.New(interp.WithOutput(io.Discard))
	if program != "" {
		if err := in.LoadProgram(program); err != nil {
			t.Fatalf("load: %v", err)
		}
	}
	return in
}

// drain collects up to max images from g, folding a raised error into a
// trailing "error" marker so traces compare structurally.
func drain(g core.Gen, max int) []string {
	var out []string
	err := core.Protect(func() {
		for i := 0; i < max; i++ {
			v, ok := g.Next()
			if !ok {
				return
			}
			out = append(out, value.Image(value.Deref(v)))
		}
	})
	if err != nil {
		out = append(out, "error")
	}
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mustFrame asserts the vm interpreter actually compiled the expression —
// EvalGen returned a bytecode frame.
func mustFrame(t *testing.T, in *interp.Interp, src string) *vm.Frame {
	t.Helper()
	g, err := in.EvalGen(src)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	f, ok := g.(*vm.Frame)
	if !ok {
		t.Fatalf("eval %q: expected a compiled frame, got %T", src, g)
	}
	return f
}

// TestCompiledExprSequences pins compiled evaluation against the tree
// walk over the expression forms the compiler lowers, and asserts each one
// genuinely compiled (the generator is a vm.Frame).
func TestCompiledExprSequences(t *testing.T) {
	const program = `
global acc
def gen(a, b) { suspend a to b; }
def double(x) { return x * 2; }
def addTo(x) { acc := x; return acc; }
record point(x, y)
def accum(n, step) { s := n; every 1 to 3 do { s +:= step; suspend s; }; }
def shrink(n, step) { s := n; every 1 to 3 do { s -:= step; suspend s; }; }
def grow(n, f) { s := n + 0; every 1 to 3 do { s *:= f; suspend s; }; }
def divs(a) { every b := -3 to 3 do suspend (a + 0) / b; }
def mods(a) { every b := (-3 to -1) | (1 to 3) | 0 do suspend (a + 0) % b; }
def minInt() { x := -9223372036854775807 - 1; suspend x / -1; suspend x % -1; suspend x * -1; suspend x - 1; suspend x; }
def mixed(a) { x := a + 1; suspend x * 2.5; suspend x / 2; suspend x % 0.5; x +:= 0.5; suspend x; }
def peak(n) { m := 0; every m <:= (n - (1 to 5)) * 1000; return m; }
def cmps(n) { every i := n to n + 3 do suspend (i < n + 2) | (i >= n + 3) | (i ~= n + 1); }
def cmpAug(n) { m := n + 0; suspend m <:= n - 1; suspend m <:= n + 5000; suspend m <:= 2.5; suspend m >:= n + 2000; suspend m; }
`
	exprs := []string{
		// Sequences and products.
		"1 to 10",
		"1 to 10 by 3",
		"10 to 1 by -2",
		"(1 to 3) & (4 | 5)",
		"(1 to 4) * (1 to 4)",
		"(1 | 2 | 3) + (10 | 20)",
		// Limits and repeated alternation.
		"(1 to 9) \\ 4",
		"(1 to 5) \\ (2 | 3)",
		"(|(1 to 2)) \\ 7",
		"(|1) \\ 3",
		// Promotion.
		"![10, 20, 30]",
		"!\"abc\"",
		"!'dcba'",
		// Tests and negation.
		"/&null",
		"\\3",
		"not (1 > 2)",
		"not (1 < 2)",
		// Control in expression position.
		"if 2 > 1 then \"y\" else \"n\"",
		"if 2 < 1 then \"y\"",
		"case 2 of { 1: \"a\"; 2: \"b\"; default: \"c\" }",
		"case 9 of { 1: \"a\"; default: \"d\" }",
		"case (1 to 5) of { 4: \"hit\" }",
		// Assignment forms.
		"{ x := 5; x +:= 2; x }",
		"{ L := [1, 2, 3]; L[2] := 9; !L }",
		"{ L := [5, 6]; L[1] +:= 10; L[1] }",
		"{ p := point(3, 4); p.x := 30; p.x + p.y }",
		"{ s := \"\"; every s ||:= !\"abc\"; s }",
		// Loops.
		"{ i := 0; while i < 5 do i +:= 1; i }",
		"{ t := 0; every t +:= 1 to 10; t }",
		"{ i := 0; n := 0; repeat { i +:= 1; if i > 4 then break; n +:= i }; n }",
		"{ t := 0; every d := 1 to 6 do { if d % 2 == 0 then next; t +:= d }; t }",
		"while (1 to 3) > 5 do 0",
		// Calls: general, direct (facts-proven), generator args.
		"gen(2, 5)",
		"double(1 to 4)",
		"double(double(3))",
		"gen(1 to 2, 4)",
		"{ addTo(7); acc }",
		// String/list machinery.
		"\"abcdef\"[2:4]",
		"[1, 2, 3][2]",
		"*\"hello\" + *[1, 2]",
		"-(1 to 3)",
		// The int64 fast paths at the edges where they hand over to the
		// kernel operators, with the operands in frame slots: overflow
		// into big integers (and MinInt64 / -1), division and remainder
		// by zero, negative remainders, mixed integer/real operands and
		// comparisons that fail.
		"accum(9223372036854775800, 3)",
		"accum(-9223372036854775800, -5)",
		"shrink(-9223372036854775800, 5)",
		"shrink(9223372036854775800, -5)",
		"grow(4611686018427387904, 2)",
		"grow(-3037000500, 3037000500)",
		"divs(7)", "divs(-7)", "mods(7)", "mods(-7)", "mods(9223372036854775807)",
		"minInt()",
		"mixed(1024)", "mixed(-257)",
		"peak(2000)", "peak(3)",
		"cmps(1030)", "cmps(-9223372036854775807)",
		"cmpAug(1025)", "cmpAug(0)",
	}
	vin := vmInterp(t, program)
	pin := plainInterp(t, program)
	for _, src := range exprs {
		f := mustFrame(t, vin, src)
		got := drain(f, 200)
		ref, err := pin.EvalGen(src)
		if err != nil {
			t.Fatalf("reference eval %q: %v", src, err)
		}
		want := drain(ref, 200)
		if !equal(got, want) {
			t.Errorf("%q:\n  vm   = %v\n  tree = %v", src, got, want)
		}
	}
}

// TestCompiledProcIsFrame proves loaded procedures execute as frames: a
// compiled call site caches its child frame, and the child is a vm.Frame.
func TestCompiledProcIsFrame(t *testing.T) {
	in := vmInterp(t, `def gen(a, b) { suspend a to b; }`)
	v, ok := in.Global("gen")
	if !ok {
		t.Fatal("gen not defined")
	}
	p, ok := v.(*value.Proc)
	if !ok {
		t.Fatalf("gen is %T", v)
	}
	g := p.Call(value.NewInt(1), value.NewInt(3))
	if _, ok := g.(*vm.Frame); !ok {
		t.Fatalf("compiled proc call returned %T, want *vm.Frame", g)
	}
	if got := drain(g, 10); !equal(got, []string{"1", "2", "3"}) {
		t.Fatalf("gen(1,3) = %v", got)
	}
}

// TestFrameRestart pins the generator contract on frames: auto-restart
// after exhaustion, and eager Restart mid-sequence.
func TestFrameRestart(t *testing.T) {
	in := vmInterp(t, "")
	f := mustFrame(t, in, "1 to 3")
	want := []string{"1", "2", "3"}
	if got := drain(f, 10); !equal(got, want) {
		t.Fatalf("first drain = %v", got)
	}
	// Auto-restart: exhausted frames re-produce on the next demand.
	if got := drain(f, 10); !equal(got, want) {
		t.Fatalf("second drain = %v", got)
	}
	// Eager restart mid-sequence.
	if v, ok := f.Next(); !ok || value.Image(v) != "1" {
		t.Fatalf("Next after drain = %v %v", v, ok)
	}
	f.Restart()
	if got := drain(f, 10); !equal(got, want) {
		t.Fatalf("drain after Restart = %v", got)
	}
}

// TestEveryFormCompiles runs, under the tree walk and the VM, the forms
// the compiler once left to the tree walk: the ones the tree walk raises
// on, which compile to a raise of its error, and the declarations it
// resolves in the order it builds them. Every procedure loaded has a
// Machine and every expression is a frame, and the two evaluators give
// the same results or the same error — except where a row's tree says
// otherwise:
// the tree walk raises some of these forms when it builds the enclosing
// statement, and re-resolves names each time a loop re-runs a statement,
// where compiled code raises when control reaches the form and resolves
// names in textual order (DESIGN.md §14a).
func TestEveryFormCompiles(t *testing.T) {
	for _, c := range []struct {
		name, program string
		exprs         []string
		want, tree    string
	}{
		{"keyword", `def now() { return &time; }`, []string{"now()"},
			"error 106: unknown keyword &time", ""},
		{"keyword-reached-late", `def f() { return 1 | &time; }`, []string{"f()"},
			"1", "error 106: unknown keyword &time"},
		{"keyword-top-level", "", []string{"1 | &time"},
			"1 error 106: unknown keyword &time", "error 106: unknown keyword &time"},
		{"malformed-literal", `def f() { return 2r3; }`, []string{"f()"},
			`error 101: malformed integer literal at 1:18: offending value "2r3"`, ""},
		{"assign-builtin", `def f(x) { write := x; return x; }`, []string{"f(1)"},
			"error 106: cannot assign to builtin write", ""},
		{"assign-native", `def f(x) { g := x; return x; }`, []string{"f(1)"},
			"error 106: cannot assign to native g", ""},
		{"aug-assign-builtin", "", []string{"write +:= 1", "write <:= 1 to 2"},
			"error 102: numeric expected: offending value procedure write; error 102: numeric expected: offending value procedure write", ""},
		{"unknown-operator", "", []string{"x &:= 1", "x =:= 1", "x @:= 1"},
			"error 106: unknown operator &:= at 1:3; error 106: unknown operator =:= at 1:3; error 106: unknown operator @:= at 1:3", ""},
		{"rev-assign-builtin", "", []string{"(write <- 1) | 2"},
			"error 106: cannot assign to builtin write", ""},
		{"swap-builtin", "", []string{"y := 1", "y :=: write", "type(y)", "write :=: y"},
			"1; error 106: cannot assign to builtin write; \"procedure\"; error 106: cannot assign to builtin write", ""},
		{"alternative-target-builtin", "", []string{"every (z | write) := 1", "z"},
			"error 106: cannot assign to builtin write; 1", ""},
		{"unregistered-native", `def f(x) { return x::nosuch(); }`, []string{"f(1)"},
			"error 106: unregistered native ::nosuch at 1:20", ""},
		{"suspend-in-expression", `def f(x) { return x + (suspend 1); }`, []string{"f(1)"},
			"error 106: return/suspend outside a procedure body at 1:24", ""},
		{"initial-in-expression", `def f(x) { return if x then { initial x := 1; x }; }`, []string{"f(1)"},
			"error 106: cannot evaluate node at 1:31", ""},
		{"static-in-expression", `def f(x) { return { static s; s := (\s | 0) + x; s }; }`, []string{"f(1)", "f(2)"},
			"1; 2", ""},
		{"break-not-reached", `def f(i) { if i == 2 then break; return i; }`, []string{"f(1)", "f(2)"},
			"1; error 106: break outside a loop", ""},
		{"break-in-a-callee", `def f(i) { if i == 2 then break; return i; }
def g() { every i := 1 to 3 do suspend f(i); }`, []string{"g()"},
			"1 error 106: break outside a loop", ""},
		{"next-outside-a-loop", `def f() { next; }`, []string{"f()", "next", "break", "1 | break"},
			"error 106: next outside a loop body; error 106: next outside a loop body; error 106: break outside a loop; 1 error 106: break outside a loop", ""},
		{"local-after-global-use", "", []string{"{ zq := 1; local zq := 2; zq }", "zq"},
			"2; 2", ""},
		{"local-after-global-use-in-a-procedure", `global g
def later() { g := 1; local g; return image(g); }`, []string{"later()", "g"},
			`"&null"; 1`, ""},
		{"local-a-loop-re-runs", `global x
def f() { x := "g"; every 1 to 2 do { suspend x; local x := "l"; }; }`, []string{"f()"},
			`"g" "g"`, `"g" "l"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(in *interp.Interp, compiled bool) string {
				in.RegisterNative("g", func(...value.V) (value.V, error) { return value.IntV(0), nil })
				if err := in.LoadProgram(c.program); err != nil {
					t.Fatalf("load: %v", err)
				}
				var out []string
				for _, e := range c.exprs {
					g, err := in.EvalGen(e)
					if err != nil {
						out = append(out, errorLine(err))
						continue
					}
					if _, ok := g.(*vm.Frame); compiled && !ok {
						t.Errorf("%s: a %T, not a frame", e, g)
					}
					out = append(out, images(g))
				}
				for _, m := range regexp.MustCompile(`def (\w+)`).FindAllStringSubmatch(c.program, -1) {
					if _, ok := in.ProcMachine(m[1]); compiled && !ok {
						t.Errorf("procedure %s has no Machine", m[1])
					}
				}
				return strings.Join(out, "; ")
			}
			want := c.tree
			if want == "" {
				want = c.want
			}
			if got := run(vmInterp(t, ""), true); got != c.want {
				t.Errorf("vm        = %s\nwant        %s", got, c.want)
			}
			if got := run(plainInterp(t, ""), false); got != want {
				t.Errorf("tree walk = %s\nwant        %s", got, want)
			}
		})
	}
}

// images drains g, joining the images of its results and, when it
// raises, the error.
func images(g core.Gen) string {
	var out []string
	err := core.Protect(func() {
		for v, ok := g.Next(); ok && len(out) < 50; v, ok = g.Next() {
			out = append(out, value.Image(value.Deref(v)))
		}
	})
	if err != nil {
		out = append(out, errorLine(err))
	}
	return strings.Join(out, " ")
}

func errorLine(err error) string {
	return strings.Replace(err.Error(), "runtime error", "error", 1)
}

// TestGlobalPersistence pins the REPL rule under the vm: top-level
// assignment auto-creates a global visible to later evaluations.
func TestGlobalPersistence(t *testing.T) {
	in := vmInterp(t, "")
	mustFrame(t, in, "zz := 41").Next()
	f := mustFrame(t, in, "zz + 1")
	if got := drain(f, 5); !equal(got, []string{"42"}) {
		t.Fatalf("zz + 1 = %v", got)
	}
}
