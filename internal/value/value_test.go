package value

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestIntegerSmallBigNormalization(t *testing.T) {
	small := NewBig(big.NewInt(42))
	if small.IsBig() {
		t.Errorf("NewBig(42) should demote to small form")
	}
	huge := NewBig(new(big.Int).Lsh(big.NewInt(1), 100))
	if !huge.IsBig() {
		t.Errorf("2^100 should stay big")
	}
	if _, fits := huge.Int64(); fits {
		t.Errorf("2^100 should not fit int64")
	}
}

func TestIntegerImage(t *testing.T) {
	if got := NewInt(-7).Image(); got != "-7" {
		t.Errorf("Image(-7) = %q", got)
	}
	b := new(big.Int).Lsh(big.NewInt(1), 70)
	if got := NewBig(b).Image(); got != "1180591620717411303424" {
		t.Errorf("Image(2^70) = %q", got)
	}
}

func TestRealImage(t *testing.T) {
	cases := map[Real]string{
		Real(1):    "1.0",
		Real(2.5):  "2.5",
		Real(1e20): "1e+20",
	}
	for in, want := range cases {
		if got := in.Image(); got != want {
			t.Errorf("Image(%v) = %q, want %q", float64(in), got, want)
		}
	}
}

func TestStringImageEscapes(t *testing.T) {
	if got := String("a\"b\\c\nd").Image(); got != `"a\"b\\c\nd"` {
		t.Errorf("string image = %q", got)
	}
}

func TestAddPromotionOnOverflow(t *testing.T) {
	a := NewInt(math.MaxInt64)
	got := Add(a, NewInt(1))
	want := new(big.Int).Add(big.NewInt(math.MaxInt64), big.NewInt(1))
	gi, ok := got.(Integer)
	if !ok || gi.Big().Cmp(want) != 0 {
		t.Fatalf("MaxInt64+1 = %v, want %v", Image(got), want)
	}
	if !gi.IsBig() {
		t.Errorf("overflowed sum should be big")
	}
}

func TestArithmeticPropertiesMatchBig(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		sum := Add(x, y).(Integer)
		diff := Sub(x, y).(Integer)
		prod := Mul(x, y).(Integer)
		bs := new(big.Int).Add(big.NewInt(a), big.NewInt(b))
		bd := new(big.Int).Sub(big.NewInt(a), big.NewInt(b))
		bp := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		return sum.Big().Cmp(bs) == 0 && diff.Big().Cmp(bd) == 0 && prod.Big().Cmp(bp) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivModTruncationAndSigns(t *testing.T) {
	if got := Div(NewInt(-7), NewInt(2)).(Integer); got.small != -3 {
		t.Errorf("-7/2 = %v, want -3 (truncation toward zero)", got)
	}
	if got := Mod(NewInt(-7), NewInt(2)).(Integer); got.small != -1 {
		t.Errorf("-7%%2 = %v, want -1 (sign of dividend)", got)
	}
}

func TestDivideByZeroRaises(t *testing.T) {
	defer func() {
		r := recover()
		re, ok := r.(*RuntimeError)
		if !ok || re.Code != ErrDivideByZero {
			t.Fatalf("expected divide-by-zero runtime error, got %v", r)
		}
	}()
	Div(NewInt(1), NewInt(0))
}

func TestMixedModePromotesToReal(t *testing.T) {
	got := Add(NewInt(1), Real(0.5))
	if r, ok := got.(Real); !ok || r != 1.5 {
		t.Errorf("1 + 0.5 = %v", Image(got))
	}
}

func TestStringCoercionInArithmetic(t *testing.T) {
	got := Mul(String("6"), String("7"))
	if i, ok := got.(Integer); !ok || i.small != 42 {
		t.Errorf(`"6" * "7" = %v, want 42`, Image(got))
	}
	got = Add(String("1.5"), NewInt(1))
	if r, ok := got.(Real); !ok || r != 2.5 {
		t.Errorf(`"1.5" + 1 = %v, want 2.5`, Image(got))
	}
}

func TestPowBigExponent(t *testing.T) {
	got := Pow(NewInt(2), NewInt(70)).(Integer)
	want := new(big.Int).Lsh(big.NewInt(1), 70)
	if got.Big().Cmp(want) != 0 {
		t.Errorf("2^70 = %v", got)
	}
	if r, ok := Pow(Real(4), Real(0.5)).(Real); !ok || r != 2 {
		t.Errorf("4.0^0.5 should be 2.0")
	}
}

func TestNumericComparisonsSucceedWithRightOperand(t *testing.T) {
	v, ok := NumLt(NewInt(1), NewInt(2))
	if !ok || v.(Integer).small != 2 {
		t.Errorf("1 < 2 should succeed producing 2, got %v %v", v, ok)
	}
	if _, ok := NumLt(NewInt(2), NewInt(1)); ok {
		t.Errorf("2 < 1 should fail")
	}
	// String operand coerces numerically for = (numeric equality).
	v, ok = NumEq(String("3"), NewInt(3))
	if !ok || v.(Integer).small != 3 {
		t.Errorf(`"3" = 3 should succeed with 3`)
	}
}

func TestStringComparisons(t *testing.T) {
	if v, ok := StrLt(String("abc"), String("abd")); !ok || v.(String) != "abd" {
		t.Errorf(`"abc" << "abd" should succeed with "abd"`)
	}
	if _, ok := StrEq(String("a"), String("b")); ok {
		t.Errorf(`"a" == "b" should fail`)
	}
	// Numbers coerce to strings for string comparison.
	if v, ok := StrEq(NewInt(12), String("12")); !ok || v.(String) != "12" {
		t.Errorf(`12 == "12" should succeed`)
	}
}

func TestSameIdentityVsContent(t *testing.T) {
	l1 := NewList(NewInt(1))
	l2 := NewList(NewInt(1))
	if _, ok := Same(l1, l2); ok {
		t.Errorf("distinct lists must not be ===")
	}
	if _, ok := Same(l1, l1); !ok {
		t.Errorf("a list must be === itself")
	}
	if _, ok := Same(String("x"), String("x")); !ok {
		t.Errorf("equal strings must be ===")
	}
	if _, ok := Same(NewInt(1), Real(1)); ok {
		t.Errorf("1 === 1.0 must fail (different types)")
	}
}

func TestCoercions(t *testing.T) {
	if i, ok := ToInteger(String(" 16r1f ")); !ok || i.small != 31 {
		t.Errorf("radix literal 16r1f = %v, %v", i, ok)
	}
	if i, ok := ToInteger(Real(3.0)); !ok || i.small != 3 {
		t.Errorf("integer(3.0) = %v, %v", i, ok)
	}
	if _, ok := ToInteger(Real(3.5)); ok {
		t.Errorf("integer(3.5) must fail")
	}
	if n, ok := ToNumber(String("2.5")); !ok {
		t.Errorf("numeric(\"2.5\") failed")
	} else if r, isReal := n.(Real); !isReal || r != 2.5 {
		t.Errorf("numeric(\"2.5\") = %v, want real 2.5", Image(n))
	}
	if s, ok := ToString(NewInt(42)); !ok || s != "42" {
		t.Errorf("string(42) = %q", s)
	}
	if _, ok := ToNumber(NewList()); ok {
		t.Errorf("numeric([]) must fail")
	}
}

func TestListOperations(t *testing.T) {
	l := NewList(NewInt(1), NewInt(2), NewInt(3))
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	if v, ok := l.At(-1); !ok || v.(Integer).small != 3 {
		t.Errorf("l[-1] = %v", v)
	}
	if _, ok := l.At(4); ok {
		t.Errorf("l[4] must fail")
	}
	l.Put(NewInt(4))
	l.Push(NewInt(0))
	if got := l.Image(); got != "[0,1,2,3,4]" {
		t.Errorf("after put/push: %s", got)
	}
	v, _ := l.Get()
	if v.(Integer).small != 0 {
		t.Errorf("get = %v", v)
	}
	v, _ = l.Pull()
	if v.(Integer).small != 4 {
		t.Errorf("pull = %v", v)
	}
	sec, ok := l.Section(1, 3)
	if !ok || sec.Image() != "[1,2]" {
		t.Errorf("section(1,3) = %v %v", sec, ok)
	}
	// Order-insensitive positions.
	sec2, _ := l.Section(3, 1)
	if sec2.Image() != sec.Image() {
		t.Errorf("section positions should commute")
	}
}

func TestListSizeConstructor(t *testing.T) {
	l := NewListSize(3, NewInt(9))
	if l.Image() != "[9,9,9]" {
		t.Errorf("list(3,9) = %s", l.Image())
	}
	if NewListSize(-1, NullV).Len() != 0 {
		t.Errorf("negative size should clamp to zero")
	}
}

func TestTableDefaultAndKeys(t *testing.T) {
	tb := NewTable(NewInt(0))
	if v := tb.Get(String("missing")); v.(Integer).small != 0 {
		t.Errorf("default = %v", v)
	}
	tb.Set(String("b"), NewInt(2))
	tb.Set(String("a"), NewInt(1))
	tb.Set(NewInt(10), NewInt(3))
	keys := tb.Keys()
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}
	// Canonical order: numbers before strings.
	if keys[0].(Integer).small != 10 || keys[1].(String) != "a" {
		t.Errorf("key order = %v", keys)
	}
	tb.Delete(String("a"))
	if tb.Has(String("a")) {
		t.Errorf("delete failed")
	}
	// Numeric keys unify across small/equal representations.
	tb.Set(NewInt(10), NewInt(99))
	if tb.Len() != 2 {
		t.Errorf("re-set of same key grew the table: %d", tb.Len())
	}
}

func TestSetMembership(t *testing.T) {
	s := NewSet(NewInt(1), String("x"), NewInt(1))
	if s.Len() != 2 {
		t.Errorf("duplicate insert should not grow set: %d", s.Len())
	}
	if !s.Has(NewInt(1)) || s.Has(NewInt(2)) {
		t.Errorf("membership wrong")
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet(NewInt(1), NewInt(2))
	b := NewSet(NewInt(2), NewInt(3))
	if u := Union(a, b).(*Set); u.Len() != 3 {
		t.Errorf("union size = %d", u.Len())
	}
	if i := Intersection(a, b).(*Set); i.Len() != 1 || !i.Has(NewInt(2)) {
		t.Errorf("intersection wrong")
	}
	if d := Difference(a, b).(*Set); d.Len() != 1 || !d.Has(NewInt(1)) {
		t.Errorf("difference wrong")
	}
}

func TestCsetOps(t *testing.T) {
	c := NewCset("bca")
	if c.Members() != "abc" {
		t.Errorf("members = %q", c.Members())
	}
	d := NewCset("cd")
	if got := MustCset(Union(c, d)).Members(); got != "abcd" {
		t.Errorf("union = %q", got)
	}
	if got := MustCset(Intersection(c, d)).Members(); got != "c" {
		t.Errorf("intersect = %q", got)
	}
	if got := MustCset(Difference(c, d)).Members(); got != "ab" {
		t.Errorf("diff = %q", got)
	}
	comp := Complement(NewCset("")).(*Cset)
	if comp.Len() != 256 {
		t.Errorf("complement of empty = %d", comp.Len())
	}
}

func TestRecordFields(t *testing.T) {
	r := NewRecord("point", []string{"x", "y"}, []V{NewInt(1)})
	y := r.FieldIndex("y")
	if y != 1 || r.FieldIndex("z") != -1 {
		t.Fatalf("field indexes y=%d z=%d", y, r.FieldIndex("z"))
	}
	if v := r.Values[y]; !IsNull(v) {
		t.Errorf("missing field init should be null")
	}
	if r.Type() != "record point" {
		t.Errorf("type = %q", r.Type())
	}
}

func TestSubscriptReferenceSemantics(t *testing.T) {
	l := NewList(NewInt(1), NewInt(2))
	ref, ok := Subscript(l, NewInt(2))
	if !ok {
		t.Fatalf("subscript failed")
	}
	ref.(*Var).Set(NewInt(99))
	if v, _ := l.At(2); v.(Integer).small != 99 {
		t.Errorf("assignment through reference did not stick: %v", l.Image())
	}
	if _, ok := Subscript(l, NewInt(5)); ok {
		t.Errorf("out of range subscript must fail, not error")
	}
	// Table subscript creates on assignment.
	tb := NewTable(NullV)
	tref, _ := Subscript(tb, String("k"))
	tref.(*Var).Set(NewInt(7))
	if tb.Get(String("k")).(Integer).small != 7 {
		t.Errorf("table subscript assignment failed")
	}
	// String subscript yields a one-character string value.
	sv, ok := Subscript(String("hello"), NewInt(-1))
	if !ok || sv.(String) != "o" {
		t.Errorf(`"hello"[-1] = %v`, sv)
	}
}

func TestSectionValues(t *testing.T) {
	v, ok := Section(String("hello"), NewInt(2), NewInt(4))
	if !ok || v.(String) != "el" {
		t.Errorf("hello[2:4] = %v", v)
	}
	v, ok = Section(String("hello"), NewInt(0), NewInt(-2))
	if !ok || v.(String) != "lo" {
		t.Errorf("hello[0:-2] = %v (0 is past-the-end, -2 is position 4)", v)
	}
	if _, ok := Section(String("hi"), NewInt(1), NewInt(9)); ok {
		t.Errorf("out-of-range section must fail")
	}
}

func TestSizeOperator(t *testing.T) {
	cases := []struct {
		v    V
		want int64
	}{
		{String("abc"), 3},
		{NewList(NewInt(1)), 1},
		{NewTable(NullV), 0},
		{NewSet(NewInt(1), NewInt(2)), 2},
		{NewCset("xyz"), 3},
		{NewInt(1234), 4}, // *i is size of string conversion
	}
	for _, c := range cases {
		if got := Size(c.v).(Integer).small; got != c.want {
			t.Errorf("Size(%s) = %d, want %d", Image(c.v), got, c.want)
		}
	}
}

func TestVarDeref(t *testing.T) {
	cell := NewCell(NewInt(5))
	outer := NewVar(func() V { return cell }, func(V) {})
	if got := Deref(outer).(Integer).small; got != 5 {
		t.Errorf("nested deref = %v", got)
	}
	cell.Set(NewInt(6))
	if got := Deref(cell).(Integer).small; got != 6 {
		t.Errorf("cell set = %v", got)
	}
}

func TestProcCallPadsArguments(t *testing.T) {
	var gotLen int
	var gotNull bool
	p := NewProc("f", 3, func(args ...V) Gen {
		gotLen = len(args)
		gotNull = IsNull(args[2])
		return nil
	})
	p.Call(NewInt(1))
	if gotLen != 3 || !gotNull {
		t.Errorf("variadic padding: len=%d null=%v", gotLen, gotNull)
	}
}

func TestLessCanonicalOrder(t *testing.T) {
	if !Less(NullV, NewInt(0)) {
		t.Errorf("null sorts first")
	}
	if !Less(NewInt(2), Real(2.5)) {
		t.Errorf("numeric cross-type compare")
	}
	if !Less(Real(9), String("1")) {
		t.Errorf("numbers sort before strings")
	}
	if Less(String("b"), String("a")) {
		t.Errorf("string order")
	}
}

func TestSliceRangeProperties(t *testing.T) {
	f := func(i, j int8, n uint8) bool {
		lo, hi, ok := SliceRange(int(i), int(j), int(n))
		if !ok {
			return true
		}
		return lo >= 0 && lo <= hi && hi <= int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestStrAndImageHelpers(t *testing.T) {
	if Str(String("x")) != "x" {
		t.Errorf("Str of string unquoted")
	}
	if Str(NullV) != "" {
		t.Errorf("Str of null is empty")
	}
	if Image(nil) != "&null" || TypeOf(nil) != "null" {
		t.Errorf("nil tolerance")
	}
}
