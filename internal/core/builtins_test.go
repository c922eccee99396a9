package core

import (
	"bytes"
	"strings"
	"testing"

	"junicon/internal/value"
)

// lib builds the builtin library over a capture buffer.
func lib(t *testing.T) (map[string]value.V, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	return Builtins(&buf), &buf
}

// callB invokes a builtin and drains it.
func callB(t *testing.T, b map[string]value.V, name string, args ...value.V) []value.V {
	t.Helper()
	p, ok := b[name].(*value.Proc)
	if !ok {
		t.Fatalf("no builtin %q", name)
	}
	var out []value.V
	if err := Protect(func() { out = Drain(p.Call(args...), 1000) }); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func one(t *testing.T, b map[string]value.V, name string, args ...value.V) string {
	t.Helper()
	vs := callB(t, b, name, args...)
	if len(vs) != 1 {
		t.Fatalf("%s: results = %v", name, vs)
	}
	return value.Image(vs[0])
}

func none(t *testing.T, b map[string]value.V, name string, args ...value.V) {
	t.Helper()
	if vs := callB(t, b, name, args...); len(vs) != 0 {
		t.Fatalf("%s should fail, got %v", name, vs)
	}
}

func TestWriteAndWrites(t *testing.T) {
	b, buf := lib(t)
	one(t, b, "write", value.String("a"), value.NewInt(1))
	one(t, b, "writes", value.String("x"))
	if buf.String() != "a1\nx" {
		t.Fatalf("output = %q", buf.String())
	}
	// write returns its last argument.
	if got := one(t, b, "write", value.NewInt(7)); got != "7" {
		t.Fatalf("write result = %s", got)
	}
}

func TestConversionBuiltins(t *testing.T) {
	b, _ := lib(t)
	if one(t, b, "image", value.String("x")) != `"\"x\""` {
		t.Fatal("image")
	}
	if one(t, b, "type", value.NewList()) != `"list"` {
		t.Fatal("type")
	}
	if one(t, b, "integer", value.String("42")) != "42" {
		t.Fatal("integer")
	}
	none(t, b, "integer", value.String("nope"))
	if one(t, b, "real", value.NewInt(2)) != "2.0" {
		t.Fatal("real")
	}
	if one(t, b, "numeric", value.String("2.5")) != "2.5" {
		t.Fatal("numeric")
	}
	none(t, b, "numeric", value.NewList())
	if one(t, b, "string", value.NewInt(9)) != `"9"` {
		t.Fatal("string")
	}
	if got := one(t, b, "cset", value.String("ba")); got != "'ab'" {
		t.Fatalf("cset = %s", got)
	}
}

func TestCopyBuiltinIsShallowPerType(t *testing.T) {
	b, _ := lib(t)
	l := value.NewList(value.NewInt(1))
	cp := callB(t, b, "copy", l)[0].(*value.List)
	cp.Put(value.NewInt(2))
	if l.Len() != 1 {
		t.Fatal("list copy shared storage")
	}
	tb := value.NewTable(value.NullV)
	tb.Set(value.String("k"), value.NewInt(1))
	ct := callB(t, b, "copy", tb)[0].(*value.Table)
	ct.Set(value.String("k2"), value.NewInt(2))
	if tb.Len() != 1 {
		t.Fatal("table copy shared storage")
	}
	s := value.NewSet(value.NewInt(1))
	cs := callB(t, b, "copy", s)[0].(*value.Set)
	cs.Insert(value.NewInt(2))
	if s.Len() != 1 {
		t.Fatal("set copy shared storage")
	}
	r := value.NewRecord("p", []string{"x"}, []value.V{value.NewInt(1)})
	cr := callB(t, b, "copy", r)[0].(*value.Record)
	cr.Values[cr.FieldIndex("x")] = value.NewInt(9)
	if v := r.Values[r.FieldIndex("x")]; value.Image(v) != "1" {
		t.Fatal("record copy shared storage")
	}
	// Immutable values copy to themselves.
	if one(t, b, "copy", value.NewInt(5)) != "5" {
		t.Fatal("scalar copy")
	}
}

func TestProcBuiltin(t *testing.T) {
	b, _ := lib(t)
	// proc("write") resolves the builtin by name.
	vs := callB(t, b, "proc", value.String("write"))
	if len(vs) != 1 {
		t.Fatal("proc by name")
	}
	none(t, b, "proc", value.String("no_such_builtin"))
	// A procedure value passes through.
	p := ValProc("f", 0, func([]value.V) value.V { return value.NullV })
	if got := callB(t, b, "proc", p); len(got) != 1 {
		t.Fatal("proc of proc")
	}
}

func TestStructureBuiltins(t *testing.T) {
	b, _ := lib(t)
	if one(t, b, "list", value.NewInt(2), value.NewInt(9)) != "[9,9]" {
		t.Fatal("list")
	}
	// put/push/get/pop/pull drive a deque.
	l := value.NewList()
	callB(t, b, "put", l, value.NewInt(1), value.NewInt(2))
	callB(t, b, "push", l, value.NewInt(0))
	if l.Image() != "[0,1,2]" {
		t.Fatalf("after put/push: %s", l.Image())
	}
	if one(t, b, "get", l) != "0" || one(t, b, "pull", l) != "2" || one(t, b, "pop", l) != "1" {
		t.Fatal("get/pull/pop")
	}
	none(t, b, "get", l) // empty fails
	none(t, b, "pull", l)

	s := value.NewSet()
	callB(t, b, "insert", s, value.NewInt(3))
	if one(t, b, "member", s, value.NewInt(3)) != "3" {
		t.Fatal("member")
	}
	callB(t, b, "delete", s, value.NewInt(3))
	none(t, b, "member", s, value.NewInt(3))

	tb := value.NewTable(value.NewInt(0))
	callB(t, b, "insert", tb, value.String("k"), value.NewInt(5))
	if one(t, b, "member", tb, value.String("k")) != `"k"` {
		t.Fatal("table member")
	}
	callB(t, b, "delete", tb, value.String("k"))
	none(t, b, "member", tb, value.String("k"))
}

func TestSortBuiltin(t *testing.T) {
	b, _ := lib(t)
	l := value.NewList(value.NewInt(3), value.NewInt(1), value.String("a"), value.NewInt(2))
	if got := one(t, b, "sort", l); got != `[1,2,3,"a"]` {
		t.Fatalf("sort list = %s", got)
	}
	s := value.NewSet(value.NewInt(2), value.NewInt(1))
	if got := one(t, b, "sort", s); got != "[1,2]" {
		t.Fatalf("sort set = %s", got)
	}
	tb := value.NewTable(value.NullV)
	tb.Set(value.String("b"), value.NewInt(2))
	tb.Set(value.String("a"), value.NewInt(1))
	if got := one(t, b, "sort", tb); got != `[["a",1],["b",2]]` {
		t.Fatalf("sort table = %s", got)
	}
}

func TestSeqAndKeyGenerators(t *testing.T) {
	b, _ := lib(t)
	p := b["seq"].(*value.Proc)
	got := Drain(Limit(p.Call(value.NewInt(5), value.NewInt(10)), 3), 0)
	if len(got) != 3 || value.Image(got[2]) != "25" {
		t.Fatalf("seq = %v", got)
	}
	tb := value.NewTable(value.NullV)
	tb.Set(value.String("x"), value.NewInt(1))
	keys := callB(t, b, "key", tb)
	if len(keys) != 1 || value.Image(keys[0]) != `"x"` {
		t.Fatalf("key = %v", keys)
	}
	// key(L) generates indices.
	l := value.NewList(value.NewInt(9), value.NewInt(8))
	if got := callB(t, b, "key", l); len(got) != 2 || value.Image(got[1]) != "2" {
		t.Fatalf("key list = %v", got)
	}
}

func TestStringAnalysisBuiltins(t *testing.T) {
	b, _ := lib(t)
	finds := callB(t, b, "find", value.String("ss"), value.String("mississippi"))
	if len(finds) != 2 || value.Image(finds[0]) != "3" || value.Image(finds[1]) != "6" {
		t.Fatalf("find = %v", finds)
	}
	// Range-restricted find.
	finds = callB(t, b, "find", value.String("ss"), value.String("mississippi"),
		value.NewInt(4), value.NewInt(0))
	if len(finds) != 1 || value.Image(finds[0]) != "6" {
		t.Fatalf("restricted find = %v", finds)
	}
	if one(t, b, "many", value.NewCset("ab"), value.String("aabbc")) != "5" {
		t.Fatal("many")
	}
	none(t, b, "many", value.NewCset("z"), value.String("aab"))
	if one(t, b, "any", value.NewCset("a"), value.String("abc")) != "2" {
		t.Fatal("any")
	}
	if one(t, b, "match", value.String("ab"), value.String("abc")) != "3" {
		t.Fatal("match")
	}
	none(t, b, "match", value.String("bc"), value.String("abc"))
}

func TestStringSynthesisBuiltins(t *testing.T) {
	b, _ := lib(t)
	if one(t, b, "repl", value.String("ab"), value.NewInt(3)) != `"ababab"` {
		t.Fatal("repl")
	}
	if one(t, b, "left", value.String("ab"), value.NewInt(5), value.String(".")) != `"ab..."` {
		t.Fatal("left")
	}
	if one(t, b, "right", value.String("ab"), value.NewInt(5), value.String(".")) != `"...ab"` {
		t.Fatal("right")
	}
	if got := one(t, b, "center", value.String("ab"), value.NewInt(6)); !strings.Contains(got, "ab") {
		t.Fatalf("center = %s", got)
	}
	// Truncation when the string is longer than the width.
	if one(t, b, "left", value.String("abcdef"), value.NewInt(3)) != `"abc"` {
		t.Fatal("left truncate")
	}
	if one(t, b, "right", value.String("abcdef"), value.NewInt(3)) != `"def"` {
		t.Fatal("right truncate")
	}
	if one(t, b, "trim", value.String("ab   ")) != `"ab"` {
		t.Fatal("trim")
	}
	if one(t, b, "map", value.String("AbC")) != `"abc"` {
		t.Fatal("map default lowers")
	}
	if one(t, b, "map", value.String("abc"), value.String("abc"), value.String("xyz")) != `"xyz"` {
		t.Fatal("map custom")
	}
	if one(t, b, "ord", value.String("A")) != "65" {
		t.Fatal("ord")
	}
	if one(t, b, "char", value.NewInt(66)) != `"B"` {
		t.Fatal("char")
	}
	if one(t, b, "abs", value.NewInt(-4)) != "4" {
		t.Fatal("abs")
	}
	if one(t, b, "reverse", value.String("abc")) != `"cba"` {
		t.Fatal("reverse")
	}
}

func TestBuiltinErrorPaths(t *testing.T) {
	b, _ := lib(t)
	for _, c := range []struct {
		name string
		args []value.V
	}{
		{"put", []value.V{value.NewInt(1), value.NewInt(2)}}, // not a list
		{"insert", []value.V{value.NewInt(1), value.NewInt(2)}},
		{"repl", []value.V{value.String("a"), value.NewInt(-1)}},
		{"ord", []value.V{value.String("ab")}},
		{"char", []value.V{value.NewInt(999)}},
		{"map", []value.V{value.String("a"), value.String("ab"), value.String("x")}},
		{"sort", []value.V{value.NewInt(1)}},
		{"key", []value.V{value.NewInt(1)}},
	} {
		p := b[c.name].(*value.Proc)
		err := Protect(func() { Drain(p.Call(c.args...), 10) })
		if err == nil {
			t.Errorf("%s(%v) should raise", c.name, c.args)
		}
	}
}

func TestSetConstructorFromListAndValues(t *testing.T) {
	b, _ := lib(t)
	s := callB(t, b, "set", value.NewList(value.NewInt(1), value.NewInt(1), value.NewInt(2)))[0].(*value.Set)
	if s.Len() != 2 {
		t.Fatalf("set from list = %d", s.Len())
	}
	s2 := callB(t, b, "set", value.NewInt(7))[0].(*value.Set)
	if !s2.Has(value.NewInt(7)) {
		t.Fatal("set from scalar")
	}
}

func TestTableBuiltinDefault(t *testing.T) {
	b, _ := lib(t)
	tb := callB(t, b, "table", value.NewInt(0))[0].(*value.Table)
	if value.Image(tb.Get(value.String("missing"))) != "0" {
		t.Fatal("table default")
	}
}

func TestBalGenerator(t *testing.T) {
	b, _ := lib(t)
	// Positions of '+' balanced w.r.t. parentheses in "(a+b)+c".
	got := callB(t, b, "bal", value.NewCset("+"), value.NullV, value.NullV,
		value.String("(a+b)+c"))
	if len(got) != 1 || value.Image(got[0]) != "6" {
		t.Fatalf("bal = %v", got)
	}
	// With c1 null, every balanced position generates.
	all := callB(t, b, "bal", value.NullV, value.NullV, value.NullV, value.String("a(b)c"))
	if len(all) != 3 { // positions 1 ('a'), 2 ('('), 5 ('c')... '(' opens at its own position
		t.Fatalf("bal all = %v", all)
	}
	// Unbalanced closer terminates generation.
	got = callB(t, b, "bal", value.NullV, value.NullV, value.NullV, value.String("a)b"))
	if len(got) != 2 { // 'a' and ')' both at depth 0, then depth<0 stops
		t.Fatalf("bal unbalanced = %v", got)
	}
}
