package interp

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"junicon/internal/value"
)

// traced loads program into an interpreter built with opts, turns &trace
// on and returns the first n results of expr with the trace they wrote.
func traced(t *testing.T, program, expr string, n int, opts ...Option) (string, string) {
	t.Helper()
	var trace bytes.Buffer
	in := New(append([]Option{WithOutput(io.Discard)}, opts...)...)
	if err := in.LoadProgram(program); err != nil {
		t.Fatal(err)
	}
	in.EnableTrace(&trace)
	vs, err := in.Eval(expr, n)
	if err != nil {
		t.Fatal(err)
	}
	var results []string
	for _, v := range vs {
		results = append(results, value.Image(v))
	}
	return strings.Join(results, " "), trace.String()
}

// TestTraceParity: compiled frames report &trace exactly as the tree walk
// does — the same calls, suspensions, returns and failures at the same
// depths, nothing for a generator that is cut off, and a failure for a
// directly called procedure the caller backtracks into.
func TestTraceParity(t *testing.T) {
	queens, err := os.ReadFile("../../testdata/queens.jn")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, program, expr string
		n                   int
	}{
		{"half", `
def half(n) {
  if n % 2 ~= 0 then fail;
  return n / 2;
}`, "half(3 to 6)", 0},
		{"queens", string(queens), "queens(6)", 3},
		{"fib", `
def fib(n) {
  if n < 2 then return n;
  return fib(n - 1) + fib(n - 2);
}`, "fib(6)", 0},
		{"cut", `
def upto(n) { every i := 1 to n do suspend i; }
def twice(n) { suspend upto(n) * 2; }`, "(twice(4) \\ 1) | upto(2)", 0},
		// one is pure with one result, so its call sites compile direct.
		{"direct", `
def one(x) { suspend x; }
def two(x) { return one(x) + 1; }`, "one(1 to 2) | two(3) | ![one(4)]", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			wantRes, want := traced(t, c.program, c.expr, c.n)
			gotRes, got := traced(t, c.program, c.expr, c.n, WithVM())
			if want == "" {
				t.Fatal("the tree walk traced nothing")
			}
			if gotRes != wantRes || got != want {
				t.Errorf("compiled: %s\n%s\ntree walk: %s\n%s", gotRes, got, wantRes, want)
			}
		})
	}
}

// TestForwardCallFailsOnBothEvaluators: a top-level statement sees only
// the declarations above it, compiled or not.
func TestForwardCallFailsOnBothEvaluators(t *testing.T) {
	for _, src := range []string{
		"x := g(2);\ndef g(n) { return n; }",
		"def f() { return g(2); }\nx := f();\ndef g(n) { return n; }",
	} {
		for _, opts := range [][]Option{nil, {WithVM()}} {
			in := New(append([]Option{WithOutput(io.Discard)}, opts...)...)
			err := in.LoadProgram(src)
			if err == nil || !strings.Contains(err.Error(), "106") {
				t.Errorf("vm=%v: %q: err = %v, want runtime error 106", opts != nil, src, err)
			}
		}
	}
}

// TestDisassemblyListsWhatRuns: -dis lists the code EvalGen runs and a
// restore recompiles — one front end, one facts policy.
func TestDisassemblyListsWhatRuns(t *testing.T) {
	const src = `!(|> (1 to 3))`
	in := New(WithOutput(io.Discard), WithVM())
	var listing strings.Builder
	if err := in.DisassembleExpr(src, &listing); err != nil {
		t.Fatal(err)
	}
	m, err := in.ExprMachine(src)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.Code().Disassemble(); listing.String() != want {
		t.Fatalf("-dis lists:\n%s\nEvalGen runs:\n%s", listing.String(), want)
	}
}

// TestDeclaredNamesParity: a global or class field named like a builtin
// is null from its declaration on, compiled or not. A compiled batch gives
// the name its cell before the batch runs, holding the builtin, so the
// statements above the declaration see the builtin as on the tree walk.
// And a procedure loaded in an earlier batch sees a name a later batch
// declares, as a tree-walked procedure resolving it at each call does,
// keeping its statics.
func TestDeclaredNamesParity(t *testing.T) {
	for _, c := range []struct {
		name    string
		batches []string
		probe   string
	}{
		{"global", []string{"x := image(left)\nglobal left\ny := image(left)"}, "x | y | image(left)"},
		{"field", []string{"x := image(right)\nclass Node(right) { def m() { return image(right); } }"}, "x | image(right) | m()"},
		{"procedure-first", []string{"def left() { return 1; }\nglobal left"}, "left()"},
		{"redeclared", []string{"global left\nleft := 5\nglobal left"}, "left"},
		{"later-global", []string{"def f() { return image(left) || image(x); }", "global left, x\nleft := 3\nx := 4"}, "f()"},
		{"later-procedure", []string{"def f(n) { return g(n) + 1; }\nh := f", "def g(n) { return n * 10; }"}, "f(2) | h(3)"},
		{"later-statics", []string{"def tick() { static n; initial n := 0; n +:= 1; return n || image(y); }\ntick()", "global y\ny := 0"}, "tick()"},
		{"aborted-load", []string{"global a\nz := 1 / 0\nglobal left", "global left"}, "image(left)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(opts ...Option) string {
				in := New(append([]Option{WithOutput(io.Discard)}, opts...)...)
				var out []string
				for _, b := range c.batches {
					if err := in.LoadProgram(b); err != nil {
						out = append(out, "load error")
					}
					out = append(out, probeImages(in, c.probe))
				}
				return strings.Join(out, "; ")
			}
			if want, got := run(), run(WithVM()); got != want {
				t.Errorf("compiled: %s\ntree walk: %s", got, want)
			}
		})
	}
}

// probeImages evaluates expr and joins the images of its results, or says
// it failed.
func probeImages(in *Interp, expr string) string {
	vs, err := in.Eval(expr, 10)
	if err != nil {
		return "error"
	}
	var images []string
	for _, v := range vs {
		images = append(images, value.Image(v))
	}
	return strings.Join(images, " ")
}

// TestDefineReachesLoadedProcedures: a host's Define or RegisterNative
// after the load is what a loaded procedure reads next, compiled or not;
// a compiled procedure naming a native not yet registered stays compiled,
// raising until the native is registered.
func TestDefineReachesLoadedProcedures(t *testing.T) {
	define := func(name string, v int64) func(*Interp) {
		return func(in *Interp) { in.Define(name, value.IntV(v)) }
	}
	native := func(name string, v int64) func(*Interp) {
		return func(in *Interp) {
			in.RegisterNative(name, func(...value.V) (value.V, error) { return value.IntV(v), nil })
		}
	}
	for _, c := range []struct {
		name, program, probe string
		steps                []func(*Interp) // the first runs before the load; the probe follows each other
		want                 []string
	}{
		{"define", `def f() { return lines + corpus; }`, "f()",
			[]func(*Interp){define("lines", 1), define("corpus", 10), define("lines", 2)},
			[]string{"11", "12"}},
		{"native", `def f(x) { return x::g(); }`, "f(1)",
			[]func(*Interp){func(*Interp) {}, func(*Interp) {}, native("g", 7), native("g", 8)},
			[]string{"error", "7", "8"}},
	} {
		for _, opts := range [][]Option{nil, {WithVM()}} {
			in := New(append([]Option{WithOutput(io.Discard)}, opts...)...)
			c.steps[0](in)
			if err := in.LoadProgram(c.program); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, step := range c.steps[1:] {
				step(in)
				got = append(got, probeImages(in, c.probe))
			}
			if strings.Join(got, " ") != strings.Join(c.want, " ") {
				t.Errorf("%s, vm=%v: %s gives %v, want %v", c.name, opts != nil, c.probe, got, c.want)
			}
			if _, ok := in.ProcMachine("f"); ok != (opts != nil) {
				t.Errorf("%s, vm=%v: f has a Machine: %v", c.name, opts != nil, ok)
			}
		}
	}
}
