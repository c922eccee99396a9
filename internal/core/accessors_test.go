package core

import (
	"testing"

	"junicon/internal/value"
)

func TestIndexGenReferencesAndFailure(t *testing.T) {
	l := value.NewList(value.NewInt(10), value.NewInt(20))
	g := IndexGen(Unit(l), Unit(value.NewInt(2)))
	v, ok := g.Next()
	if !ok {
		t.Fatal("index failed")
	}
	v.(*value.Var).Set(value.NewInt(99))
	if l.Image() != "[10,99]" {
		t.Fatal("index reference not updatable")
	}
	if _, ok := IndexGen(Unit(l), Unit(value.NewInt(5))).Next(); ok {
		t.Fatal("out-of-range index must fail")
	}
	// Generator index searches positions.
	n := Count(IndexGen(Unit(l), IntRange(1, 3)))
	if n != 2 {
		t.Fatalf("index over range = %d results", n)
	}
}

func TestSectionGen(t *testing.T) {
	v, ok := First(SectionGen(Unit(value.String("hello")), Unit(value.NewInt(2)), Unit(value.NewInt(4))))
	if !ok || v.(value.String) != "el" {
		t.Fatalf("section = %v", v)
	}
	if _, ok := SectionGen(Unit(value.String("hi")), Unit(value.NewInt(1)), Unit(value.NewInt(9))).Next(); ok {
		t.Fatal("bad section must fail")
	}
}

func TestFieldGenUpdatable(t *testing.T) {
	r := value.NewRecord("p", []string{"x"}, []value.V{value.NewInt(1)})
	v, ok := FieldGen(Unit(r), "x").Next()
	if !ok {
		t.Fatal("field failed")
	}
	v.(*value.Var).Set(value.NewInt(7))
	if got, _ := r.GetField("x"); value.Image(got) != "7" {
		t.Fatal("field reference not updatable")
	}
	err := Protect(func() { FieldGen(Unit(r), "nope").Next() })
	if err == nil {
		t.Fatal("missing field should raise")
	}
}

func TestActivateGen(t *testing.T) {
	c := NewFirstClass(IntRange(5, 6))
	got := Drain(Limit(ActivateGen(nil, Unit(c)), 1), 0)
	if len(got) != 1 || value.Image(got[0]) != "5" {
		t.Fatalf("@c = %v", got)
	}
	// Exhausted co-expression fails the activation.
	c2 := NewFirstClass(Empty())
	if _, ok := ActivateGen(nil, Unit(c2)).Next(); ok {
		t.Fatal("activation of exhausted co-expression must fail")
	}
}

func TestNullTests(t *testing.T) {
	if _, ok := NullTest(Unit(value.NullV)).Next(); !ok {
		t.Fatal("/null must succeed")
	}
	if _, ok := NullTest(Unit(value.NewInt(1))).Next(); ok {
		t.Fatal("/1 must fail")
	}
	v, ok := NonNullTest(Unit(value.NewInt(1))).Next()
	if !ok || value.Image(v) != "1" {
		t.Fatal("\\1 must succeed with 1")
	}
	if _, ok := NonNullTest(Unit(value.NullV)).Next(); ok {
		t.Fatal("\\null must fail")
	}
}

func TestLimitGenEvaluatesCountFirst(t *testing.T) {
	got := Drain(LimitGen(IntRange(1, 100), Unit(value.NewInt(2))), 0)
	if len(got) != 2 {
		t.Fatalf("limit = %v", got)
	}
}

func TestSizeOpOnStepper(t *testing.T) {
	c := NewFirstClass(IntRange(1, 5))
	c.Step(value.NullV)
	c.Step(value.NullV)
	v, _ := First(SizeOp(Unit(c)))
	if value.Image(v) != "2" {
		t.Fatalf("*c = %v", v)
	}
}

func TestRandomElement(t *testing.T) {
	for i := 0; i < 20; i++ {
		v, ok := RandomElement(value.NewInt(3))
		if !ok {
			t.Fatal("?3 must succeed")
		}
		n, _ := value.ToInteger(v)
		if i64, _ := n.Int64(); i64 < 1 || i64 > 3 {
			t.Fatalf("?3 = %v", v)
		}
	}
	if _, ok := RandomElement(value.NewInt(0)); ok {
		t.Fatal("?0 must fail")
	}
	v, ok := RandomElement(value.String("x"))
	if !ok || v.(value.String) != "x" {
		t.Fatal("?\"x\"")
	}
	if _, ok := RandomElement(value.String("")); ok {
		t.Fatal("?\"\" must fail")
	}
	l := value.NewList(value.NewInt(9))
	if v, ok := RandomElement(l); !ok || value.Image(value.Deref(v)) != "9" {
		t.Fatal("?list")
	}
	if _, ok := RandomElement(value.NewTable(value.NullV)); ok {
		t.Fatal("?table unsupported must fail")
	}
}

func TestListOfBoundedElements(t *testing.T) {
	v, ok := First(ListOf(IntRange(1, 5), Unit(value.NewInt(9))))
	if !ok || v.(*value.List).Image() != "[1,9]" {
		t.Fatalf("ListOf = %v", v)
	}
	// Element failure fails the constructor.
	if _, ok := ListOf(Unit(value.NewInt(1)), Empty()).Next(); ok {
		t.Fatal("failing element must fail the list")
	}
	if v, _ := First(ListOf()); v.(*value.List).Len() != 0 {
		t.Fatal("empty list constructor")
	}
}

func TestAssignToFamilies(t *testing.T) {
	x := value.NewCell(value.NewInt(1))
	y := value.NewCell(value.NewInt(2))

	Drain(SwapTo(Unit(x), Unit(y)), 1)
	if value.Image(x.Get()) != "2" || value.Image(y.Get()) != "1" {
		t.Fatal("SwapTo")
	}

	g := RevSwapTo(Unit(x), Unit(y))
	g.Next()
	if value.Image(x.Get()) != "1" {
		t.Fatal("RevSwapTo exchange")
	}
	g.Next()
	if value.Image(x.Get()) != "2" {
		t.Fatal("RevSwapTo restore")
	}

	Drain(AugAssignTo(value.Add, Unit(x), Unit(value.NewInt(10))), 1)
	if value.Image(x.Get()) != "12" {
		t.Fatal("AugAssignTo")
	}

	if _, ok := CmpAugAssignTo(value.NumLt, Unit(x), Unit(value.NewInt(5))).Next(); ok {
		t.Fatal("12 <:= 5 must fail")
	}
	if _, ok := CmpAugAssignTo(value.NumLt, Unit(x), Unit(value.NewInt(50))).Next(); !ok {
		t.Fatal("12 <:= 50 must succeed")
	}
	if value.Image(x.Get()) != "50" {
		t.Fatal("conditional assignment value")
	}

	rg := RevAssignTo(Unit(x), Values(value.NewInt(7)))
	rg.Next()
	if value.Image(x.Get()) != "7" {
		t.Fatal("RevAssignTo assign")
	}
	rg.Next() // exhausted: restores
	if value.Image(x.Get()) != "50" {
		t.Fatal("RevAssignTo restore")
	}

	// Non-variable targets raise.
	err := Protect(func() { Drain(AugAssignTo(value.Add, Unit(value.NewInt(1)), Unit(value.NewInt(1))), 1) })
	if err == nil {
		t.Fatal("augmented assignment to value should raise")
	}
}

func TestOpTables(t *testing.T) {
	for _, op := range []string{"+", "-", "*", "/", "%", "^", "||", "|||", "++", "--", "**"} {
		if _, ok := ArithOp(op); !ok {
			t.Errorf("missing arith op %s", op)
		}
	}
	for _, op := range []string{"<", "<=", ">", ">=", "~=", "<<", "<<=", ">>", ">>=", "==", "~==", "===", "~==="} {
		if _, ok := CompareOp(op); !ok {
			t.Errorf("missing compare op %s", op)
		}
	}
	if _, ok := ArithOp("nope"); ok {
		t.Error("unknown arith op should miss")
	}
}

func TestBreakGenAndNextGenSignals(t *testing.T) {
	// BreakGen inside a kernel loop terminates it with the outcome.
	loop := RepeatLoop(BreakGen(Unit(value.NewInt(5))))
	v, ok := loop.Next()
	if !ok || value.Image(value.Deref(v)) != "5" {
		t.Fatalf("break outcome = %v %v", v, ok)
	}
	// NextGen skips to the next iteration; pair with a break via alternation
	// driven by a counter.
	n := 0
	body := Defer(func() Gen {
		n++
		if n < 3 {
			return NextGen()
		}
		return BreakGen(nil)
	})
	Drain(RepeatLoop(body), 0)
	if n != 3 {
		t.Fatalf("iterations = %d", n)
	}
}
