package core

import (
	"strings"
	"testing"

	"junicon/internal/value"
)

// ints drains g and returns results as int64s, failing the test on
// non-integer results.
func ints(t *testing.T, g Gen) []int64 {
	t.Helper()
	var out []int64
	for _, v := range Drain(g, 10000) {
		i, ok := value.ToInteger(v)
		if !ok {
			t.Fatalf("non-integer result %s", value.Image(v))
		}
		n, _ := i.Int64()
		out = append(out, n)
	}
	return out
}

func eqInts(t *testing.T, got []int64, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
			return
		}
	}
}

func TestUnitAndEmpty(t *testing.T) {
	eqInts(t, ints(t, Unit(value.NewInt(7))), 7)
	if _, ok := Empty().Next(); ok {
		t.Fatal("Empty must fail")
	}
}

func TestAutoRestartAfterFailure(t *testing.T) {
	// The paper: "After failure, the iterator is then restarted on the
	// following next()."
	g := Values(value.NewInt(1), value.NewInt(2))
	first := ints(t, g)
	second := ints(t, g)
	eqInts(t, first, 1, 2)
	eqInts(t, second, 1, 2)
}

func TestRange(t *testing.T) {
	eqInts(t, ints(t, IntRange(1, 4)), 1, 2, 3, 4)
	eqInts(t, ints(t, Range(value.NewInt(10), value.NewInt(1), value.NewInt(-3))), 10, 7, 4, 1)
	eqInts(t, ints(t, IntRange(5, 4))) // empty
	// Real steps.
	got := Drain(Range(value.Real(0), value.Real(1), value.Real(0.5)), 0)
	if len(got) != 3 {
		t.Fatalf("real range: %v", got)
	}
}

func TestProductSearchesCrossProduct(t *testing.T) {
	// (1 to 2) & (10 to 12) yields the right operand per combination.
	g := Product(IntRange(1, 2), IntRange(10, 12))
	eqInts(t, ints(t, g), 10, 11, 12, 10, 11, 12)
}

func TestProductFailurePropagates(t *testing.T) {
	g := Product(Empty(), IntRange(1, 3))
	eqInts(t, ints(t, g))
	g = Product(IntRange(1, 3), Empty())
	eqInts(t, ints(t, g))
}

func TestAltConcatenatesSequences(t *testing.T) {
	g := Alt(IntRange(1, 2), IntRange(8, 9))
	eqInts(t, ints(t, g), 1, 2, 8, 9)
	// Redrain: auto-restart.
	eqInts(t, ints(t, g), 1, 2, 8, 9)
}

func TestLimit(t *testing.T) {
	eqInts(t, ints(t, Limit(IntRange(1, 100), 3)), 1, 2, 3)
	eqInts(t, ints(t, Limit(IntRange(1, 2), 5)), 1, 2)
	eqInts(t, ints(t, Limit(IntRange(1, 5), 0)))
	// Limit resets per cycle.
	g := Limit(IntRange(1, 100), 2)
	eqInts(t, ints(t, g), 1, 2)
	eqInts(t, ints(t, g), 1, 2)
}

func TestSequenceDelegatesToLastTerm(t *testing.T) {
	count := 0
	sideEffect := Defer(func() Gen {
		count++
		return Unit(value.NullV)
	})
	g := Sequence(sideEffect, IntRange(5, 7))
	eqInts(t, ints(t, g), 5, 6, 7)
	if count != 1 {
		t.Fatalf("prefix evaluated %d times, want 1", count)
	}
	// Failure of a prefix term does not abort the sequence.
	g = Sequence(Empty(), IntRange(1, 2))
	eqInts(t, ints(t, g), 1, 2)
}

func TestRepeatAlt(t *testing.T) {
	g := Limit(RepeatAlt(IntRange(1, 2)), 5)
	eqInts(t, ints(t, g), 1, 2, 1, 2, 1)
	// |(empty) fails rather than spinning.
	eqInts(t, ints(t, RepeatAlt(Empty())))
}

func TestInBindsVariable(t *testing.T) {
	x := value.NewCell(value.NullV)
	g := In(x, IntRange(4, 6))
	var seen []int64
	Each(g, func(value.V) bool {
		i, _ := value.ToInteger(x.Get())
		n, _ := i.Int64()
		seen = append(seen, n)
		return true
	})
	eqInts(t, seen, 4, 5, 6)
}

func TestFlattenedPrimeMultiples(t *testing.T) {
	// The paper's running example: (1 to 2) * isprime(4 to 7)
	// ≡ i=(1 to 2) & j=(4 to 7) & isprime(j) & i*j → 5, 7, 10, 14.
	isprime := ValProc("isprime", 1, func(a []value.V) value.V {
		n := value.MustInt(a[0])
		if n < 2 {
			return nil
		}
		for d := 2; d*d <= n; d++ {
			if n%d == 0 {
				return nil
			}
		}
		return value.Deref(a[0])
	})
	i := value.NewCell(value.NullV)
	j := value.NewCell(value.NullV)
	// Defer plays the role of the paper's IconInvokeIterator: the invocation
	// closure re-evaluates each cycle, seeing the current variable bindings.
	g := Product(
		In(i, IntRange(1, 2)),
		In(j, IntRange(4, 7)),
		Defer(func() Gen { return InvokeVal(isprime, j.Get()) }),
		Defer(func() Gen { return Unit(value.Mul(i.Get(), j.Get())) }),
	)
	eqInts(t, ints(t, g), 5, 7, 10, 14)

	// The same expression via the operator composition engine.
	g2 := Op2(value.Mul, IntRange(1, 2),
		Apply1(func(v value.V) Gen { return InvokeVal(isprime, v) }, IntRange(4, 7)))
	eqInts(t, ints(t, g2), 5, 7, 10, 14)
}

func TestCmp2ResumesOperands(t *testing.T) {
	// (1 to 5) > 3 succeeds for i = 4, 5, producing 3 each time.
	g := Cmp2(value.NumGt, IntRange(1, 5), Unit(value.NewInt(3)))
	eqInts(t, ints(t, g), 3, 3)
}

func TestInvokeGeneratorFunctionPosition(t *testing.T) {
	// (f | g)(x) ≡ f(x) | g(x) (§2A).
	f := ValProc("f", 1, func(a []value.V) value.V { return value.Add(a[0], value.NewInt(100)) })
	gp := ValProc("g", 1, func(a []value.V) value.V { return value.Add(a[0], value.NewInt(200)) })
	g := Invoke(Alt(Unit(f), Unit(gp)), Unit(value.NewInt(1)))
	eqInts(t, ints(t, g), 101, 201)
}

func TestInvokeIntegerMutualEvaluation(t *testing.T) {
	// 2(e1, e2, e3) yields the second argument.
	g := InvokeVal(value.NewInt(2), value.NewInt(10), value.NewInt(20), value.NewInt(30))
	eqInts(t, ints(t, g), 20)
	g = InvokeVal(value.NewInt(-1), value.NewInt(10), value.NewInt(20))
	eqInts(t, ints(t, g), 20)
	if _, ok := InvokeVal(value.NewInt(5), value.NewInt(1)).Next(); ok {
		t.Fatal("out-of-range selection must fail")
	}
}

func TestInvokeNonProcedureRaises(t *testing.T) {
	err := Protect(func() { InvokeVal(value.String("nope")) })
	if err == nil || !strings.Contains(err.Error(), "procedure") {
		t.Fatalf("err = %v", err)
	}
}

func TestNewGenSuspension(t *testing.T) {
	calls := 0
	g := NewGen(func(yield func(V) bool) {
		calls++
		for i := int64(1); i <= 3; i++ {
			if !yield(value.NewInt(i)) {
				return
			}
		}
	})
	v, ok := g.Next()
	if !ok || value.Image(v) != "1" {
		t.Fatalf("first = %v %v", v, ok)
	}
	eqInts(t, ints(t, g), 2, 3)
	// Auto-restart runs a fresh body.
	eqInts(t, ints(t, g), 1, 2, 3)
	if calls != 2 {
		t.Fatalf("body ran %d times, want 2", calls)
	}
}

func TestNewGenRestartMidstream(t *testing.T) {
	g := NewGen(func(yield func(V) bool) {
		for i := int64(1); ; i++ {
			if !yield(value.NewInt(i)) {
				return
			}
		}
	})
	g.Next()
	g.Next()
	g.Restart()
	v, _ := g.Next()
	if value.Image(v) != "1" {
		t.Fatalf("restart should rewind, got %v", value.Image(v))
	}
	g.Restart() // leave no leaked coroutine
}

func TestGenProcEachInvocationIndependent(t *testing.T) {
	counter := GenProc("upto3", 0, func(_ []V, yield func(V) bool) {
		for i := int64(1); i <= 3; i++ {
			if !yield(value.NewInt(i)) {
				return
			}
		}
	})
	a := counter.Call()
	b := counter.Call()
	a.Next()
	v, _ := b.Next()
	if value.Image(v) != "1" {
		t.Fatalf("invocations share state: %v", value.Image(v))
	}
	a.Restart()
	b.Restart()
}

func TestPromoteValues(t *testing.T) {
	l := value.NewList(value.NewInt(1), value.NewInt(2))
	eqInts(t, ints(t, PromoteVal(l)), 1, 2)

	got := Drain(PromoteVal(value.String("abc")), 0)
	if len(got) != 3 || got[0].(value.String) != "a" {
		t.Fatalf("!string = %v", got)
	}

	s := value.NewSet(value.NewInt(3), value.NewInt(1))
	eqInts(t, ints(t, PromoteVal(s)), 1, 3)

	tb := value.NewTable(value.NullV)
	tb.Set(value.String("a"), value.NewInt(10))
	tb.Set(value.String("b"), value.NewInt(20))
	eqInts(t, ints(t, PromoteVal(tb)), 10, 20)
	eqInts(t, ints(t, Drainable(t, KeyVal(tb))))
}

// Drainable checks key generation separately (keys here are strings).
func Drainable(t *testing.T, g Gen) Gen {
	t.Helper()
	keys := Drain(g, 0)
	if len(keys) != 2 || keys[0].(value.String) != "a" {
		t.Fatalf("keys = %v", keys)
	}
	return Empty()
}

func TestPromoteListYieldsUpdatableReferences(t *testing.T) {
	// every !L := 0 zeroes the list.
	l := value.NewList(value.NewInt(1), value.NewInt(2), value.NewInt(3))
	g := Assign(PromoteVal(l), Unit(value.NewInt(0)))
	Drain(g, 0)
	if l.Image() != "[0,0,0]" {
		t.Fatalf("every !L := 0 gave %s", l.Image())
	}
}

func TestAssignVarYieldsVariable(t *testing.T) {
	x := value.NewCell(value.NullV)
	g := AssignVar(x, IntRange(1, 3))
	v, ok := g.Next()
	if !ok {
		t.Fatal("assign failed")
	}
	if _, isVar := v.(*value.Var); !isVar {
		t.Fatalf("assignment should yield the variable, got %T", v)
	}
	if value.Image(value.Deref(v)) != "1" {
		t.Fatalf("deref = %v", value.Image(value.Deref(v)))
	}
	// Resumption reassigns.
	g.Next()
	if value.Image(x.Get()) != "2" {
		t.Fatalf("x = %v", value.Image(x.Get()))
	}
}

func TestReversibleAssignmentRestoresOnResume(t *testing.T) {
	x := value.NewCell(value.NewInt(0))
	g := RevAssignVar(x, IntRange(1, 2))
	g.Next()
	if value.Image(x.Get()) != "1" {
		t.Fatalf("x after first = %v", value.Image(x.Get()))
	}
	g.Next() // restores 0 then assigns 2
	if value.Image(x.Get()) != "2" {
		t.Fatalf("x after second = %v", value.Image(x.Get()))
	}
	if _, ok := g.Next(); ok {
		t.Fatal("should fail after exhaustion")
	}
	if value.Image(x.Get()) != "0" {
		t.Fatalf("x should be restored to 0, got %v", value.Image(x.Get()))
	}
}

func TestReversibleAssignmentInsideProductBacktracks(t *testing.T) {
	// (x <- (1 to 3)) & (x = 2): on success x stays 2; exhausting the whole
	// expression restores x.
	x := value.NewCell(value.NewInt(99))
	g := Product(
		RevAssignVar(x, IntRange(1, 3)),
		Defer(func() Gen { return Cmp2(value.NumEq, Unit(x.Get()), Unit(value.NewInt(2))) }),
	)
	v, ok := g.Next()
	if !ok || value.Image(value.Deref(v)) != "2" {
		t.Fatalf("first = %v %v", value.Image(value.Deref(v)), ok)
	}
	if value.Image(x.Get()) != "2" {
		t.Fatalf("x during success = %v", value.Image(x.Get()))
	}
	Drain(g, 0)
	if value.Image(x.Get()) != "99" {
		t.Fatalf("x after failure should be restored, got %v", value.Image(x.Get()))
	}
}

func TestSwapAndRevSwap(t *testing.T) {
	x := value.NewCell(value.NewInt(1))
	y := value.NewCell(value.NewInt(2))
	Drain(SwapVars(x, y), 1)
	if value.Image(x.Get()) != "2" || value.Image(y.Get()) != "1" {
		t.Fatal("swap failed")
	}
	g := RevSwapVars(x, y)
	g.Next()
	if value.Image(x.Get()) != "1" {
		t.Fatal("revswap did not exchange")
	}
	g.Next() // fails, restores
	if value.Image(x.Get()) != "2" || value.Image(y.Get()) != "1" {
		t.Fatal("revswap did not restore")
	}
}

func TestWhileLoop(t *testing.T) {
	i := value.NewCell(value.NewInt(0))
	sum := value.NewCell(value.NewInt(0))
	cond := Defer(func() Gen { return Cmp2(value.NumLt, Unit(i.Get()), Unit(value.NewInt(5))) })
	body := Sequence(
		Defer(func() Gen { return AugAssignTo(value.Add, Unit(i), Unit(value.NewInt(1))) }),
		Defer(func() Gen { return AugAssignTo(value.Add, Unit(sum), Unit(i.Get())) }),
	)
	g := While(cond, body)
	if _, ok := g.Next(); ok {
		t.Fatal("while should fail")
	}
	if value.Image(sum.Get()) != "15" {
		t.Fatalf("sum = %v", value.Image(sum.Get()))
	}
}

func TestUntilLoop(t *testing.T) {
	i := value.NewCell(value.NewInt(0))
	cond := Defer(func() Gen { return Cmp2(value.NumEq, Unit(i.Get()), Unit(value.NewInt(3))) })
	body := Defer(func() Gen { return AugAssignTo(value.Add, Unit(i), Unit(value.NewInt(1))) })
	Drain(Until(cond, body), 0)
	if value.Image(i.Get()) != "3" {
		t.Fatalf("i = %v", value.Image(i.Get()))
	}
}

func TestEveryDrivesGenerator(t *testing.T) {
	var seen []int64
	x := value.NewCell(value.NullV)
	body := Defer(func() Gen {
		i, _ := value.ToInteger(x.Get())
		n, _ := i.Int64()
		seen = append(seen, n)
		return Unit(value.NullV)
	})
	g := Every(In(x, IntRange(1, 4)), body)
	if _, ok := g.Next(); ok {
		t.Fatal("every should fail")
	}
	eqInts(t, seen, 1, 2, 3, 4)
}

func TestBreakWithValueTerminatesLoop(t *testing.T) {
	i := value.NewCell(value.NewInt(0))
	body := Defer(func() Gen {
		Drain(AugAssignTo(value.Add, Unit(i), Unit(value.NewInt(1))), 1)
		if value.NumCompare(i.Get(), value.NewInt(3)) >= 0 {
			Break(Unit(value.NewInt(42)))
		}
		return Unit(value.NullV)
	})
	g := RepeatLoop(body)
	v, ok := g.Next()
	if !ok || value.Image(value.Deref(v)) != "42" {
		t.Fatalf("break outcome = %v %v", v, ok)
	}
}

func TestNextSignalSkipsRestOfBody(t *testing.T) {
	count := 0
	i := value.NewCell(value.NewInt(0))
	body := Defer(func() Gen {
		Drain(AugAssignTo(value.Add, Unit(i), Unit(value.NewInt(1))), 1)
		if value.NumCompare(i.Get(), value.NewInt(5)) >= 0 {
			Break(nil)
		}
		NextIter()
		count++ // unreachable
		return Unit(value.NullV)
	})
	Drain(While(Unit(value.NullV), body), 0)
	if count != 0 {
		t.Fatal("next did not skip body tail")
	}
}

func TestIfThenElseGenerative(t *testing.T) {
	g := IfThen(Unit(value.NewInt(1)), IntRange(1, 2), nil)
	eqInts(t, ints(t, g), 1, 2)
	g = IfThen(Empty(), IntRange(1, 2), IntRange(8, 9))
	eqInts(t, ints(t, g), 8, 9)
	g = IfThen(Empty(), IntRange(1, 2), nil)
	eqInts(t, ints(t, g))
}

func TestNot(t *testing.T) {
	if _, ok := Not(Unit(value.NewInt(1))).Next(); ok {
		t.Fatal("not(success) must fail")
	}
	v, ok := Not(Empty()).Next()
	if !ok || !value.IsNull(v) {
		t.Fatal("not(failure) must succeed with null")
	}
}

func TestCaseExpression(t *testing.T) {
	run := func(subject int64) (string, bool) {
		g := Case(Unit(value.NewInt(subject)),
			[]CaseClause{
				{Sel: Alt(Unit(value.NewInt(1)), Unit(value.NewInt(2))), Body: Unit(value.String("small"))},
				{Sel: Unit(value.NewInt(10)), Body: Unit(value.String("ten"))},
			},
			Unit(value.String("other")))
		v, ok := g.Next()
		if !ok {
			return "", false
		}
		return string(v.(value.String)), true
	}
	for subject, want := range map[int64]string{1: "small", 2: "small", 10: "ten", 99: "other"} {
		if got, ok := run(subject); !ok || got != want {
			t.Fatalf("case(%d) = %q %v, want %q", subject, got, ok, want)
		}
	}
}

func TestFirstClassStepperCalculus(t *testing.T) {
	// <>e, @c, !c, ^c from Figure 1.
	c := NewFirstClass(IntRange(1, 3))
	v, ok := c.Step(value.NullV) // @c
	if !ok || value.Image(v) != "1" {
		t.Fatalf("@c = %v", v)
	}
	if c.Size() != 1 {
		t.Fatalf("*c = %d", c.Size())
	}
	eqInts(t, ints(t, Bang(c)), 2, 3) // !c resumes where @ left off
	c.Refresh()                       // ^c
	eqInts(t, ints(t, Bang(c)), 1, 2, 3)
}

func TestStepOnNonCoexprRaises(t *testing.T) {
	err := Protect(func() { Step(value.NewInt(1), value.NullV) })
	if err == nil || !strings.Contains(err.Error(), "co-expression") {
		t.Fatalf("err = %v", err)
	}
}

func TestDrainFirstEachCount(t *testing.T) {
	if Count(IntRange(1, 10)) != 10 {
		t.Fatal("count")
	}
	v, ok := First(IntRange(5, 9))
	if !ok || value.Image(v) != "5" {
		t.Fatal("first")
	}
	if _, ok := First(Empty()); ok {
		t.Fatal("first of empty")
	}
	if got := Drain(IntRange(1, 100), 3); len(got) != 3 {
		t.Fatalf("drain cap: %d", len(got))
	}
}

func TestProtectPassesThroughForeignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic swallowed")
		}
	}()
	_ = Protect(func() { panic("boom") })
}
