package interp

import (
	"bytes"
	"fmt"
	"math/big"
	mathrand "math/rand"
	"strings"
	"testing"

	"junicon/internal/core"
	"junicon/internal/value"
)

func evalAll(t *testing.T, in *Interp, src string) []string {
	t.Helper()
	vs, err := in.Eval(src, 10000)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = value.Image(v)
	}
	return out
}

func expect(t *testing.T, in *Interp, src string, want ...string) {
	t.Helper()
	got := evalAll(t, in, src)
	if len(got) != len(want) {
		t.Fatalf("%s => %v, want %v", src, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s => %v, want %v", src, got, want)
		}
	}
}

func TestArithmeticAndSequences(t *testing.T) {
	in := New()
	expect(t, in, "1 + 2", "3")
	expect(t, in, "2 ^ 10", "1024")
	expect(t, in, "1 to 4", "1", "2", "3", "4")
	expect(t, in, "10 to 1 by -4", "10", "6", "2")
	expect(t, in, "(1 to 2) + (10 | 20)", "11", "21", "12", "22")
	expect(t, in, `"abc" || "def"`, `"abcdef"`)
}

func TestGoalDirectedComparisonSearch(t *testing.T) {
	in := New()
	// (1 to 5) > 3 succeeds twice, yielding the right operand.
	expect(t, in, "(1 to 5) > 3", "3", "3")
	// Both operands searched: (1 to 10) > (8 to 9) succeeds for the pairs
	// (9,8), (10,8), (10,9).
	expect(t, in, "(1 to 10) > (8 to 9)", "8", "8", "9")
	expect(t, in, "2 > 3") // fails: empty
}

func TestPrimeMultiplesPaperExample(t *testing.T) {
	// §2A: (1 to 2) * isprime(4 to 7) produces 5, 7, 10, 14.
	// = aliases := in Junicon (see parser doc), so the primality test is
	// phrased with ~= (numeric inequality).
	in2 := New()
	if err := in2.LoadProgram(`
def isprime(n) {
  if n < 2 then fail;
  every d := 2 to n-1 do { if not (n % d ~= 0) then fail };
  return n;
}
`); err != nil {
		t.Fatal(err)
	}
	expect(t, in2, "(1 to 2) * isprime(4 to 7)", "5", "7", "10", "14")
}

func TestPrimeMultiplesViaProductForm(t *testing.T) {
	// The explicit iterator-product form from §2A:
	// i := (1 to 2) & j := (4 to 7) & isprime(j) & i*j
	in := New()
	if err := in.LoadProgram(`
def isprime(n) {
  if n < 2 then fail;
  every d := 2 to n-1 do { if not (n % d ~= 0) then fail };
  return n;
}
`); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "(i := (1 to 2)) & (j := (4 to 7)) & isprime(j) & i*j",
		"5", "7", "10", "14")
}

func TestOrderDiffersBetweenForms(t *testing.T) {
	// The operand-search form and the explicit bound-product form
	// enumerate the same combinations with equal cardinality.
	in := New()
	if err := in.LoadProgram(`def pass(n) { if n > 5 then return n; }`); err != nil {
		t.Fatal(err)
	}
	a := evalAll(t, in, "(1 to 2) * pass(4 to 7)")
	b := evalAll(t, in, "(i := (1 to 2)) & (j := (4 to 7)) & pass(j) & i*j")
	if len(a) != len(b) {
		t.Fatalf("cardinality differs: %v vs %v", a, b)
	}
}

func TestSuspendGeneratorFunction(t *testing.T) {
	in := New()
	if err := in.LoadProgram(`
def firsts(n) {
  suspend 1 to n;
}
def countdown(n) {
  while n > 0 do {
    suspend n;
    n := n - 1;
  };
}
`); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "firsts(3)", "1", "2", "3")
	expect(t, in, "countdown(3)", "3", "2", "1")
}

func TestSuspendInsideNestedControl(t *testing.T) {
	// Figure 4's chunk(): suspend inside if inside while.
	in := New()
	if err := in.LoadProgram(`
def pieces(n) {
  i := 0;
  while i < n do {
    i := i + 1;
    if i % 2 ~= 1 then { suspend i; };
  };
}
`); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "pieces(6)", "2", "4", "6")
}

func TestReturnFailSemantics(t *testing.T) {
	in := New()
	if err := in.LoadProgram(`
def pick(x) {
  if x > 0 then return x;
  fail;
}
def nothing() { fail; }
`); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "pick(5)", "5")
	expect(t, in, "pick(-1)")
	expect(t, in, "nothing()")
	// return is not resumable: one result only.
	expect(t, in, "pick(3) | pick(4)", "3", "4")
}

func TestEveryBreakNext(t *testing.T) {
	in := New()
	if err := in.LoadProgram(`
def collect() {
  acc := [];
  every i := 1 to 10 do {
    if i === 4 then next;
    if i > 6 then break;
    put(acc, i);
  };
  return acc;
}
`); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "collect()", "[1,2,3,5,6]")
}

func TestWhileLoopAccumulation(t *testing.T) {
	in := New()
	expect(t, in, "{ s := 0; i := 0; while i < 5 do { i +:= 1; s +:= i }; s }", "15")
}

func TestStringBuiltinsAreGenerators(t *testing.T) {
	in := New()
	expect(t, in, `find("ab", "abcabc")`, "1", "4")
	expect(t, in, `upto('aeiou', "stream")`, "4", "5")
	expect(t, in, `!"abc"`, `"a"`, `"b"`, `"c"`)
	expect(t, in, `reverse("abc")`, `"cba"`)
}

func TestListsTablesRecords(t *testing.T) {
	in := New()
	expect(t, in, "{ l := [1,2,3]; l[2] := 99; l }", "[1,99,3]")
	expect(t, in, "{ t := table(0); t[\"k\"] := 5; t[\"k\"] + t[\"missing\"] }", "5")
	if err := in.LoadProgram("record point(x, y)"); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "{ p := point(1, 2); p.y := 9; p.x + p.y }", "10")
	expect(t, in, "*[1,2,3]", "3")
	expect(t, in, "![10,20]", "10", "20")
}

func TestEveryBangAssignsElements(t *testing.T) {
	in := New()
	expect(t, in, "{ l := [1,2,3]; every !l := 0; l }", "[0,0,0]")
}

func TestWriteOutput(t *testing.T) {
	var buf bytes.Buffer
	in := New(WithOutput(&buf))
	if _, err := in.Eval(`write("hello ", 42)`, 1); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "hello 42\n" {
		t.Fatalf("output = %q", buf.String())
	}
}

func TestFirstClassGeneratorCalculus(t *testing.T) {
	in := New()
	// <>e, @c, !c from Figure 1.
	expect(t, in, "{ c := <>(1 to 3); @c }", "1")
	expect(t, in, "{ c := <>(1 to 3); @c; !c }", "2", "3")
	expect(t, in, "{ c := <>(1 to 2); @c; @c; @c }") // exhausted → fail
	expect(t, in, "{ c := <>(1 to 2); @c; c := ^c; !c }", "1", "2")
	expect(t, in, "{ c := <>(1 to 3); @c; @c; *c }", "2")
}

func TestCoExpressionShadowing(t *testing.T) {
	in := New()
	// |<>e copies referenced locals at creation.
	expect(t, in, "{ x := 5; c := |<>(x + 1); x := 100; @c }", "6")
	// Refresh restores the creation-time snapshot.
	expect(t, in, "{ x := 1; c := |<>(x +:= 10); @c; c := ^c; @c }", "11")
}

func TestPipeProducesInParallel(t *testing.T) {
	in := New()
	expect(t, in, "!(|> (1 to 5))", "1", "2", "3", "4", "5")
	// Pipeline: stage feeding a surrounding expression.
	expect(t, in, "2 * !(|> (1 to 3))", "2", "4", "6")
}

func TestPipelineOfPipes(t *testing.T) {
	// x * !|>f(!|>g(y)) — the §3B two-stage pipeline, with squares and
	// increments as the stages.
	in := New()
	if err := in.LoadProgram(`
def sq(x) { return x * x; }
def inc(x) { return x + 1; }
`); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "10 * !(|> inc(!(|> sq(1 to 4))))", "20", "50", "100", "170")
}

func TestTransmissionIntoCoExpression(t *testing.T) {
	in := New()
	// x @ c transmits x; our co-expressions ignore untargeted transmission
	// but the activation still steps.
	expect(t, in, "{ c := <>(1 to 3); 99 @ c; @c }", "2")
}

func TestNativeInvocation(t *testing.T) {
	in := New()
	in.RegisterNative("wordToNumber", func(args ...value.V) (value.V, error) {
		s, ok := value.ToString(args[0])
		if !ok {
			return nil, fmt.Errorf("string expected")
		}
		n, ok := new(big.Int).SetString(strings.ToLower(string(s)), 36)
		if !ok {
			return nil, nil // native failure
		}
		return value.NewBig(n), nil
	})
	expect(t, in, `this::wordToNumber("10")`, "36")
	expect(t, in, `this::wordToNumber("zz")`, "1295")
	// Native failure is goal-directed failure.
	expect(t, in, `this::wordToNumber("!!!")`)
	// Receiver form passes the receiver as first argument.
	expect(t, in, `"10"::wordToNumber()`, "36")
}

func TestUnregisteredNativeRaises(t *testing.T) {
	in := New()
	if _, err := in.Eval("this::nosuch(1)", 1); err == nil {
		t.Fatal("unregistered native should error")
	}
}

func TestNullTests(t *testing.T) {
	in := New()
	expect(t, in, "/x", "&null")          // x is auto-created null
	expect(t, in, "{ y := 5; \\y }", "5") // non-null test yields value
	expect(t, in, "{ y := 5; /y }")       // fails
	expect(t, in, "not (1 > 2)", "&null")
	expect(t, in, "not (1 < 2)")
}

func TestCaseExpression(t *testing.T) {
	in := New()
	expect(t, in, `case 2 of { 1: "one"; 2 | 3: "few"; default: "many" }`, `"few"`)
	expect(t, in, `case 9 of { 1: "one"; default: "many" }`, `"many"`)
	expect(t, in, `case 9 of { 1: "one" }`) // no match, no default: fails
}

func TestAlternationOfCalls(t *testing.T) {
	in := New()
	if err := in.LoadProgram(`
def f(x) { return x + 100; }
def g(x) { return x + 200; }
`); err != nil {
		t.Fatal(err)
	}
	// (f | g)(1) ≡ f(1) | g(1) (§2A).
	expect(t, in, "(f | g)(1)", "101", "201")
}

func TestRepeatedAlternation(t *testing.T) {
	in := New()
	expect(t, in, "(|(1 to 2)) \\ 5", "1", "2", "1", "2", "1")
}

func TestLimitOperator(t *testing.T) {
	in := New()
	expect(t, in, "(1 to 100) \\ 3", "1", "2", "3")
}

func TestReversibleAssignment(t *testing.T) {
	in := New()
	// (x <- 3) & x > 99 fails and restores x.
	expect(t, in, "{ x := 1; (x <- 3) & (x > 99) }")
	expect(t, in, "{ x := 1; ((x <- 3) & (x > 99)) | x }", "1")
}

func TestSwap(t *testing.T) {
	in := New()
	expect(t, in, "{ a := 1; b := 2; a :=: b; [a, b] }", "[2,1]")
}

func TestRecordsInsideGenerators(t *testing.T) {
	in := New()
	if err := in.LoadProgram("record pair(a, b)"); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "{ p := pair(1, 2); !p }", "1", "2")
}

func TestGlobalsAcrossEvals(t *testing.T) {
	in := New()
	if err := in.LoadProgram("global counter\ncounter := 0"); err != nil {
		t.Fatal(err)
	}
	evalAll(t, in, "counter +:= 1")
	evalAll(t, in, "counter +:= 1")
	expect(t, in, "counter", "2")
}

func TestMutualEvaluationIntegerInvocation(t *testing.T) {
	in := New()
	expect(t, in, "2(10, 20, 30)", "20")
}

func TestRuntimeErrorsBecomeGoErrors(t *testing.T) {
	in := New()
	if _, err := in.Eval("1 / 0", 1); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
	if _, err := in.Eval("[1] + 2", 1); err == nil {
		t.Fatal("type error should surface")
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	in := New()
	if _, err := in.Eval("f(", 1); err == nil {
		t.Fatal("parse error should surface")
	}
	if err := in.LoadProgram("def f( {}"); err == nil {
		t.Fatal("program parse error should surface")
	}
}

func TestChunkProgramFromFigure4(t *testing.T) {
	// The chunk generator of Figure 4, interpreted end to end.
	in := New()
	if err := in.LoadProgram(`
global chunkSize
chunkSize := 4
def chunk(e) {
  c := [];
  while put(c, @e) do {
    if (*c >= chunkSize) then { suspend c; c := []; }};
  if (*c > 0) then { return c; };
}
`); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "chunk(<>(1 to 10))", "[1,2,3,4]", "[5,6,7,8]", "[9,10]")
}

func TestEvalFirstAndGen(t *testing.T) {
	in := New()
	v, ok, err := in.EvalFirst("5 + 5")
	if err != nil || !ok || value.Image(v) != "10" {
		t.Fatalf("EvalFirst: %v %v %v", v, ok, err)
	}
	_, ok, err = in.EvalFirst("1 > 2")
	if err != nil || ok {
		t.Fatalf("failure expected: %v %v", ok, err)
	}
	g, err := in.EvalGen("1 to 3")
	if err != nil {
		t.Fatal(err)
	}
	if n := core.Count(g); n != 3 {
		t.Fatalf("count = %d", n)
	}
}

func TestProcedureTracing(t *testing.T) {
	var trace bytes.Buffer
	in := New()
	if err := in.LoadProgram(`
def half(n) {
  if n % 2 ~= 0 then fail;
  return n / 2;
}
`); err != nil {
		t.Fatal(err)
	}
	in.EnableTrace(&trace)
	expect(t, in, "half(3 to 6)", "2", "3")
	out := trace.String()
	for _, want := range []string{
		"half(3)", "half failed",
		"half(4)", "half returned 2",
		"half(5)", "half(6)", "half returned 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	in.DisableTrace()
	trace.Reset()
	expect(t, in, "half(4)", "2")
	if trace.Len() != 0 {
		t.Fatalf("trace after disable: %q", trace.String())
	}
}

func TestEverySuspendIdiom(t *testing.T) {
	in := New()
	if err := in.LoadProgram(`
def firstsquares(n) {
  every suspend (1 to n) ^ 2;
}
`); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "firstsquares(4)", "1", "4", "9", "16")
}

// TestNQueens runs the classic goal-directed backtracking benchmark: the
// recursive generator place() suspends complete placements and undoes its
// board mutations on resumption, so draining it enumerates every solution.
func TestNQueens(t *testing.T) {
	in := New()
	if err := in.LoadProgram(`
global rows, up, down, q

def place(c, n) {
  if c > n then return copy(q);
  every r := 1 to n do {
    if /rows[r] then if /up[n+r-c] then if /down[r+c-1] then {
      rows[r] := 1; up[n+r-c] := 1; down[r+c-1] := 1; q[c] := r;
      suspend place(c+1, n);
      rows[r] := &null; up[n+r-c] := &null; down[r+c-1] := &null;
    };
  };
}

def queens(n) {
  rows := list(n); up := list(2*n-1); down := list(2*n-1); q := list(n);
  suspend place(1, n);
}
`); err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{4: 2, 5: 10, 6: 4}
	for n, want := range counts {
		vs, err := in.Eval(fmt.Sprintf("queens(%d)", n), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != want {
			t.Fatalf("queens(%d) found %d solutions, want %d", n, len(vs), want)
		}
	}
	// Spot-check one 4-queens solution is a valid permutation.
	vs, _ := in.Eval("queens(4)", 1)
	sol := vs[0].(*value.List)
	seen := map[string]bool{}
	for _, e := range sol.Elems() {
		seen[value.Image(e)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("solution not a permutation: %s", sol.Image())
	}
}

func TestClassDeclFlattensInInterpreter(t *testing.T) {
	in := New()
	if err := in.LoadProgram(`
class Acc(total) {
  def add(x) { total := total + x; return total; }
}
total := 0
`); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "add(5)", "5")
	expect(t, in, "add(3)", "8")
	expect(t, in, "total", "8")
}

func TestEvalNeverPanicsOnFragmentSoup(t *testing.T) {
	// Evaluation of arbitrary (parseable) expressions must surface errors,
	// never panic. Uses bounded evaluation since random expressions can be
	// infinite generators.
	// NOTE: repeated alternation (prefix |) is deliberately absent — |e
	// makes infinite result sequences, and a product like `|1 & /1` is a
	// legitimately non-terminating search (as in Icon itself).
	frags := []string{
		"1", "x", `"s"`, "[1]", "f", "(", ")", "+", "*", ":=", "&",
		"!", "@", "^", "\\", "?", "to", " ", "&null", "table(0)", "/",
	}
	rng := newRand(13)
	for i := 0; i < 800; i++ {
		var b strings.Builder
		n := 1 + rng.Intn(12)
		for j := 0; j < n; j++ {
			b.WriteString(frags[rng.Intn(len(frags))])
		}
		src := b.String()
		in := New(WithOutput(discard{}))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = in.Eval(src, 50)
		}()
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func newRand(seed int64) *mathrand.Rand { return mathrand.New(mathrand.NewSource(seed)) }

func TestStaticVariablesPersistAcrossCalls(t *testing.T) {
	in := New()
	if err := in.LoadProgram(`
def counter() {
  static n;
  initial n := 100;
  n +:= 1;
  return n;
}
`); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "counter()", "101")
	expect(t, in, "counter()", "102")
	expect(t, in, "counter()", "103")
}

func TestInitialRunsOncePerProcedure(t *testing.T) {
	var buf bytes.Buffer
	in := New(WithOutput(&buf))
	if err := in.LoadProgram(`
def hello(x) {
  initial write("setup");
  return x;
}
`); err != nil {
		t.Fatal(err)
	}
	evalAll(t, in, "hello(1)")
	evalAll(t, in, "hello(2)")
	if got := strings.Count(buf.String(), "setup"); got != 1 {
		t.Fatalf("initial ran %d times", got)
	}
}

func TestStaticWithInitializerExpression(t *testing.T) {
	in := New()
	if err := in.LoadProgram(`
def memo() {
  static cache := table(0);
  cache["hits"] +:= 1;
  return cache["hits"];
}
`); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "memo()", "1")
	expect(t, in, "memo()", "2")
}

func TestListConstructorSearchesOperands(t *testing.T) {
	// Like every operation, [e1, e2] searches the operand product (§2A).
	in := New()
	expect(t, in, "[1 to 2, 5]", "[1,5]", "[2,5]")
	expect(t, in, "[1, 2 | 3]", "[1,2]", "[1,3]")
	// Failing element fails the constructor.
	expect(t, in, "[1, 2 > 3]")
}

func TestInterpAPICorners(t *testing.T) {
	in := New()
	// Global on missing name.
	if _, ok := in.Global("nope"); ok {
		t.Fatal("missing global should report !ok")
	}
	// Top-level var declaration executes at load.
	if err := in.LoadProgram("var greeting := \"hi\""); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "greeting", `"hi"`)
	// EvalRawGen surfaces parse errors.
	if _, err := in.EvalRawGen("f("); err == nil {
		t.Fatal("raw parse error should surface")
	}
	// Unknown &keyword raises at construction.
	if _, err := in.EvalGen("&bogus"); err == nil {
		t.Fatal("unknown keyword should error")
	}
	// Record constructors ignore extra arguments, pad missing ones.
	if err := in.LoadProgram("record pt(x, y)"); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "pt(1, 2, 3).x", "1")
	expect(t, in, "{ p := pt(1); /p.y }", "&null")
	// Builtins are not assignable.
	if _, err := in.Eval("write := 1", 1); err == nil {
		t.Fatal("assigning a builtin should raise")
	}
}

func TestSuspendWithDoClause(t *testing.T) {
	var buf bytes.Buffer
	in := New(WithOutput(&buf))
	if err := in.LoadProgram(`
def g() {
  suspend 1 to 3 do write("resumed");
}
`); err != nil {
		t.Fatal(err)
	}
	expect(t, in, "g()", "1", "2", "3")
	// The do-clause runs after each resumption (between results), i.e.
	// after results 1, 2 and 3 are consumed and the generator re-entered.
	if got := strings.Count(buf.String(), "resumed"); got < 2 {
		t.Fatalf("do clause ran %d times", got)
	}
}
