package junicon_test

import (
	"bytes"
	"strings"
	"testing"

	"junicon"
)

func images(vs []junicon.Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = junicon.Image(v)
	}
	return out
}

func TestQuickstartPrimeMultiples(t *testing.T) {
	in := junicon.NewInterp(nil)
	if err := in.LoadProgram(`
def isprime(n) {
  if n < 2 then fail;
  every d := 2 to n-1 do { if not (n % d ~= 0) then fail };
  return n;
}`); err != nil {
		t.Fatal(err)
	}
	vs, err := in.Eval("(1 to 2) * isprime(4 to 7)", 0)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(images(vs), " ")
	if got != "5 7 10 14" {
		t.Fatalf("prime multiples = %s", got)
	}
}

func TestKernelCombinatorsViaFacade(t *testing.T) {
	g := junicon.Product(junicon.Range(1, 2, 1),
		junicon.Map(junicon.Range(10, 12, 1), func(v junicon.Value) junicon.Value {
			n, _ := junicon.ToInt(v)
			return junicon.Int(n * 2)
		}))
	vs := junicon.Drain(g, 0)
	if len(vs) != 6 {
		t.Fatalf("product cardinality = %d", len(vs))
	}
	if junicon.Count(junicon.Alt(junicon.Ints(1, 2), junicon.Ints(3))) != 3 {
		t.Fatal("alt")
	}
	if junicon.Count(junicon.Limit(junicon.RepeatAlt(junicon.Ints(1)), 5)) != 5 {
		t.Fatal("limit/repeat")
	}
	v, ok := junicon.First(junicon.Filter(junicon.Range(1, 10, 1), func(v junicon.Value) bool {
		n, _ := junicon.ToInt(v)
		return n > 7
	}))
	if !ok || junicon.Image(v) != "8" {
		t.Fatalf("filter first = %v", v)
	}
}

func TestCalculusViaFacade(t *testing.T) {
	// <>e, @c, !c, ^c.
	c := junicon.FirstClass(junicon.Range(1, 3, 1))
	v, ok := junicon.Step(c, junicon.Null())
	if !ok || junicon.Image(v) != "1" {
		t.Fatalf("@c = %v", v)
	}
	rest := junicon.Drain(junicon.Bang(c), 0)
	if len(rest) != 2 {
		t.Fatalf("!c = %v", images(rest))
	}
	fresh := junicon.Refresh(c)
	v, _ = junicon.Step(fresh, junicon.Null())
	if junicon.Image(v) != "1" {
		t.Fatalf("^c rewinds: %v", v)
	}
}

func TestPipelineViaFacade(t *testing.T) {
	dbl := func(in junicon.Gen) junicon.Gen {
		return junicon.Map(in, func(v junicon.Value) junicon.Value {
			n, _ := junicon.ToInt(v)
			return junicon.Int(n * 2)
		})
	}
	g := junicon.Pipeline(junicon.Range(1, 4, 1), 2, dbl, dbl)
	vs := images(junicon.Drain(g, 0))
	if strings.Join(vs, " ") != "4 8 12 16" {
		t.Fatalf("pipeline = %v", vs)
	}
}

func TestFutureViaFacade(t *testing.T) {
	f := junicon.Future(junicon.Range(42, 99, 1))
	v, ok := f.First()
	if !ok || junicon.Image(v) != "42" {
		t.Fatalf("future = %v", v)
	}
}

func TestMapReduceViaFacade(t *testing.T) {
	square := junicon.Proc("square", 1, func(a []junicon.Value) junicon.Value {
		n, _ := junicon.ToInt(a[0])
		return junicon.Int(n * n)
	})
	src := junicon.GenProc("src", 0, func(_ []junicon.Value, yield func(junicon.Value) bool) {
		for i := int64(1); i <= 10; i++ {
			if !yield(junicon.Int(i)) {
				return
			}
		}
	})
	sum := junicon.Proc("sum", 2, func(a []junicon.Value) junicon.Value {
		x, _ := junicon.ToInt(a[0])
		y, _ := junicon.ToInt(a[1])
		return junicon.Int(x + y)
	})
	dp := junicon.NewDataParallel(3).WithBuffer(2)
	total := int64(0)
	junicon.Each(dp.MapReduce(square, src, sum, junicon.Int(0)), func(v junicon.Value) bool {
		n, _ := junicon.ToInt(v)
		total += n
		return true
	})
	if total != 385 {
		t.Fatalf("sum of squares = %d", total)
	}
}

func TestMixedLanguageEmbedding(t *testing.T) {
	mixed := `
package host

// Host Go code surrounds the embedded region.
@<script lang="junicon">
  def triple(x) { return x * 3; }
  def upTo(n) { suspend 1 to n; }
@</script>

func hostStuff() {}
`
	var out bytes.Buffer
	in := junicon.NewInterp(&out)
	if err := junicon.LoadMixed(in, mixed); err != nil {
		t.Fatal(err)
	}
	vs, err := in.Eval("triple(upTo(3))", 0)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(images(vs), " ") != "3 6 9" {
		t.Fatalf("mixed eval = %v", images(vs))
	}
	// Host text round-trips.
	segs, err := junicon.ParseMixed(mixed)
	if err != nil {
		t.Fatal(err)
	}
	back, err := junicon.RenderMixed(segs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back != mixed {
		t.Fatal("mixed source did not round-trip")
	}
	if len(junicon.Regions(segs)) != 1 {
		t.Fatal("region count")
	}
}

func TestNativeInterop(t *testing.T) {
	in := junicon.NewInterp(nil)
	in.RegisterNative("hostLen", func(args ...junicon.Value) (junicon.Value, error) {
		s, ok := junicon.ToStr(args[0])
		if !ok {
			return nil, nil
		}
		return junicon.Int(int64(len(s))), nil
	})
	v, ok, err := in.EvalFirst(`this::hostLen("hello")`)
	if err != nil || !ok || junicon.Image(v) != "5" {
		t.Fatalf("native = %v %v %v", v, ok, err)
	}
}

func TestTranslateViaFacade(t *testing.T) {
	out, err := junicon.Translate(`def f(x) { return x + 1; }`, junicon.TranslateOptions{Package: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "package p") || !strings.Contains(out, "P_f") {
		t.Fatalf("translation:\n%s", out)
	}
	mixed := `host { } @<script lang="junicon"> def g(y) { return y; } @</script>`
	out, err = junicon.TranslateMixed(mixed, junicon.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "P_g") {
		t.Fatalf("mixed translation:\n%s", out)
	}
}

func TestErrorsSurface(t *testing.T) {
	in := junicon.NewInterp(nil)
	if _, err := in.Eval("1/0", 1); err == nil {
		t.Fatal("runtime error should surface")
	}
	// break and next outside a loop raise error 106 into the host, not a
	// Go panic.
	for _, src := range []string{"break", "next", "1 | break"} {
		if _, err := in.Eval(src, 5); err == nil || !strings.Contains(err.Error(), "runtime error 106: ") {
			t.Errorf("%s: err = %v", src, err)
		}
	}
	var re *junicon.RuntimeError
	err := junicon.Protect(func() {
		junicon.Call(junicon.Str("not a proc"))
	})
	if err == nil {
		t.Fatal("Protect should catch kernel errors")
	}
	if !strings.Contains(err.Error(), "procedure") {
		t.Fatalf("err = %v", err)
	}
	_ = re
	if err := junicon.LoadMixed(in, `@<script lang="junicon"> def broken( { @</script>`); err == nil {
		t.Fatal("malformed region should error")
	}
	if err := junicon.LoadMixed(in, `@<script lang="junicon"> x := 1; @<script lang="go"> nope @</script> @</script>`); err == nil {
		t.Fatal("nested host region should be rejected by the interpreter path")
	}
}

func TestQueueExposed(t *testing.T) {
	q := junicon.NewBlockingQueue(2)
	if err := q.Put(junicon.Int(1)); err != nil {
		t.Fatal(err)
	}
	v, err := q.Take()
	if err != nil || junicon.Image(v) != "1" {
		t.Fatalf("queue = %v %v", v, err)
	}
}
