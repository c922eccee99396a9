package core

import (
	"fmt"
	"io"
	"strings"

	"junicon/internal/value"
)

// Builtins returns the library of Icon built-in functions as procedure
// values, writing any output to w. The set covers the functions the paper's
// programs use ("most of Icon's built-in functions", §IX) — structure
// operations, type conversions, string analysis generators and string
// synthesis functions.
func Builtins(w io.Writer) map[string]value.V {
	b := map[string]value.V{}
	add := func(p *value.Proc) { b[p.Name] = p }

	// --- output ---
	add(ValProc("write", -1, func(args []value.V) value.V {
		var last value.V = value.NullV
		var sb strings.Builder
		for _, a := range args {
			sb.WriteString(value.Str(value.Deref(a)))
			last = value.Deref(a)
		}
		sb.WriteByte('\n')
		fmt.Fprint(w, sb.String())
		return last
	}))
	add(ValProc("writes", -1, func(args []value.V) value.V {
		var last value.V = value.NullV
		for _, a := range args {
			fmt.Fprint(w, value.Str(value.Deref(a)))
			last = value.Deref(a)
		}
		return last
	}))

	// --- reflection & conversion ---
	add(ValProc("image", 1, func(a []value.V) value.V { return value.String(value.Image(value.Deref(a[0]))) }))
	add(ValProc("type", 1, func(a []value.V) value.V { return value.String(value.TypeOf(value.Deref(a[0]))) }))
	add(ValProc("numeric", 1, func(a []value.V) value.V {
		n, ok := value.ToNumber(a[0])
		if !ok {
			return nil
		}
		return n
	}))
	add(ValProc("integer", 1, func(a []value.V) value.V {
		i, ok := value.ToInteger(a[0])
		if !ok {
			return nil
		}
		return i
	}))
	add(ValProc("real", 1, func(a []value.V) value.V {
		r, ok := value.ToReal(a[0])
		if !ok {
			return nil
		}
		return r
	}))
	add(ValProc("string", 1, func(a []value.V) value.V {
		s, ok := value.ToString(a[0])
		if !ok {
			return nil
		}
		return s
	}))
	add(ValProc("cset", 1, func(a []value.V) value.V {
		c, ok := value.ToCset(a[0])
		if !ok {
			return nil
		}
		return c
	}))
	add(ValProc("copy", 1, func(a []value.V) value.V {
		switch x := value.Deref(a[0]).(type) {
		case *value.List:
			return x.Copy()
		case *value.Table:
			return x.Copy()
		case *value.Set:
			return x.Copy()
		case *value.Record:
			return value.NewRecord(x.Name, x.Fields, append([]value.V(nil), x.Values...))
		default:
			return x
		}
	}))
	add(ValProc("proc", 2, func(a []value.V) value.V {
		if p, ok := value.Deref(a[0]).(*value.Proc); ok {
			return p
		}
		if n, ok := value.Deref(a[0]).(*value.Native); ok {
			return value.NewProc(n.Name, -1, func(args ...value.V) Gen { return InvokeVal(n, args...) })
		}
		if s, ok := value.Deref(a[0]).(value.String); ok {
			if p, found := b[string(s)]; found {
				return p
			}
		}
		return nil
	}))

	// --- structures ---
	add(ValProc("list", 2, func(a []value.V) value.V {
		n := 0
		if !value.IsNull(value.Deref(a[0])) {
			n = value.MustInt(a[0])
		}
		return value.NewListSize(n, value.Deref(a[1]))
	}))
	add(ValProc("table", 1, func(a []value.V) value.V { return value.NewTable(value.Deref(a[0])) }))
	add(ValProc("set", -1, func(a []value.V) value.V {
		s := value.NewSet()
		for _, x := range a {
			d := value.Deref(x)
			if l, ok := d.(*value.List); ok {
				for _, e := range l.Elems() {
					s.Insert(e)
				}
			} else if !value.IsNull(d) {
				s.Insert(d)
			}
		}
		return s
	}))
	add(ValProc("put", -1, func(a []value.V) value.V {
		l := mustList(a, 0)
		for _, v := range a[1:] {
			l.Put(value.Deref(v))
		}
		return l
	}))
	add(ValProc("push", -1, func(a []value.V) value.V {
		l := mustList(a, 0)
		for _, v := range a[1:] {
			l.Push(value.Deref(v))
		}
		return l
	}))
	add(ValProc("get", 1, func(a []value.V) value.V {
		v, ok := mustList(a, 0).Get()
		if !ok {
			return nil
		}
		return v
	}))
	add(ValProc("pop", 1, func(a []value.V) value.V {
		v, ok := mustList(a, 0).Get()
		if !ok {
			return nil
		}
		return v
	}))
	add(ValProc("pull", 1, func(a []value.V) value.V {
		v, ok := mustList(a, 0).Pull()
		if !ok {
			return nil
		}
		return v
	}))
	add(ValProc("insert", 3, func(a []value.V) value.V {
		switch x := value.Deref(a[0]).(type) {
		case *value.Set:
			x.Insert(value.Deref(a[1]))
			return x
		case *value.Table:
			x.Set(value.Deref(a[1]), value.Deref(a[2]))
			return x
		default:
			value.Raise(value.ErrNotTable, "insert: set or table expected", x)
		}
		panic("unreachable")
	}))
	add(ValProc("delete", 2, func(a []value.V) value.V {
		switch x := value.Deref(a[0]).(type) {
		case *value.Set:
			x.Delete(value.Deref(a[1]))
			return x
		case *value.Table:
			x.Delete(value.Deref(a[1]))
			return x
		default:
			value.Raise(value.ErrNotTable, "delete: set or table expected", x)
		}
		panic("unreachable")
	}))
	add(ValProc("member", 2, func(a []value.V) value.V {
		switch x := value.Deref(a[0]).(type) {
		case *value.Set:
			if x.Has(value.Deref(a[1])) {
				return value.Deref(a[1])
			}
			return nil
		case *value.Table:
			if x.Has(value.Deref(a[1])) {
				return value.Deref(a[1])
			}
			return nil
		default:
			value.Raise(value.ErrNotTable, "member: set or table expected", x)
		}
		panic("unreachable")
	}))
	add(ValProc("sort", 2, func(a []value.V) value.V {
		switch x := value.Deref(a[0]).(type) {
		case *value.List:
			out := x.Copy().Elems()
			insertionSort(out)
			return value.NewList(out...)
		case *value.Set:
			return value.NewList(x.Members()...)
		case *value.Table:
			// sort(T) yields a list of [key, value] pairs ordered by key.
			out := value.NewList()
			for _, k := range x.Keys() {
				out.Put(value.NewList(k, x.Get(k)))
			}
			return out
		default:
			value.Raise(value.ErrNotList, "sort: structure expected", x)
		}
		panic("unreachable")
	}))

	// --- generators over structures ---
	add(value.NewProc("key", 1, func(args ...value.V) Gen { return KeyVal(args[0]) }))
	add(StepProc("seq", 2, func(args []value.V) func() (value.V, bool) {
		start := value.NewInt(1)
		if len(args) > 0 && !value.IsNull(value.Deref(args[0])) {
			start = value.MustInteger(args[0])
		}
		by := value.NewInt(1)
		if len(args) > 1 && !value.IsNull(value.Deref(args[1])) {
			by = value.MustInteger(args[1])
		}
		var cur value.V
		return func() (value.V, bool) {
			if cur == nil {
				cur = start
			} else {
				cur = value.Add(cur, by)
			}
			return cur, true
		}
	}))

	// --- string analysis (generators) ---
	add(StepProc("find", 4, func(args []value.V) func() (value.V, bool) {
		pat := string(value.MustString(args[0]))
		s, lo, hi := subjectRange(args, 1)
		return hits(lo, func() int { return hi - len(pat) + 1 }, func(i int) bool {
			return pat != "" && s[i:i+len(pat)] == pat
		})
	}))
	add(StepProc("upto", 4, func(args []value.V) func() (value.V, bool) {
		c := value.MustCset(args[0])
		s, lo, hi := subjectRange(args, 1)
		return hits(lo, func() int { return hi }, func(i int) bool { return c.Contains(rune(s[i])) })
	}))
	add(ValProc("many", 4, func(args []value.V) value.V {
		c := value.MustCset(args[0])
		s, lo, hi := subjectRange(args, 1)
		i := lo
		for i < hi && c.Contains(rune(s[i])) {
			i++
		}
		if i == lo {
			return nil
		}
		return value.IntV(int64(i + 1))
	}))
	add(ValProc("any", 4, func(args []value.V) value.V {
		c := value.MustCset(args[0])
		s, lo, hi := subjectRange(args, 1)
		if lo < hi && c.Contains(rune(s[lo])) {
			return value.IntV(int64(lo + 2))
		}
		return nil
	}))
	add(StepProc("bal", 6, func(args []value.V) func() (value.V, bool) {
		// bal(c1, c2, c3, s, i, j): generate positions in s[i:j] where a
		// character of c1 occurs balanced with respect to openers c2 and
		// closers c3 (defaults: &cset-ish any, '(' and ')').
		c1 := value.NewCset("")
		anyChar := value.IsNull(value.Deref(args[0]))
		if !anyChar {
			c1 = value.MustCset(args[0])
		}
		c2 := value.NewCset("(")
		if !value.IsNull(value.Deref(args[1])) {
			c2 = value.MustCset(args[1])
		}
		c3 := value.NewCset(")")
		if !value.IsNull(value.Deref(args[2])) {
			c3 = value.MustCset(args[2])
		}
		s, lo, hi := subjectRange(args, 3)
		depth := 0
		end := func() int {
			if depth < 0 {
				return 0 // an unbalanced closer ends the sequence
			}
			return hi
		}
		return hits(lo, end, func(i int) bool {
			ch := rune(s[i])
			hit := depth == 0 && (anyChar || c1.Contains(ch))
			switch {
			case c2.Contains(ch):
				depth++
			case c3.Contains(ch):
				depth--
			}
			return hit
		})
	}))
	add(ValProc("match", 4, func(args []value.V) value.V {
		pat := string(value.MustString(args[0]))
		s, lo, hi := subjectRange(args, 1)
		if lo+len(pat) <= hi && s[lo:lo+len(pat)] == pat {
			return value.IntV(int64(lo + len(pat) + 1))
		}
		return nil
	}))

	// --- string synthesis ---
	add(ValProc("reverse", 1, func(a []value.V) value.V {
		s := []byte(value.MustString(a[0]))
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
		return value.String(s)
	}))
	add(ValProc("repl", 2, func(a []value.V) value.V {
		s := string(value.MustString(a[0]))
		n := value.MustInt(a[1])
		if n < 0 {
			value.Raise(value.ErrInteger, "repl: negative count", value.Deref(a[1]))
		}
		return value.String(strings.Repeat(s, n))
	}))
	add(ValProc("left", 3, func(a []value.V) value.V { return padString(a, 'l') }))
	add(ValProc("right", 3, func(a []value.V) value.V { return padString(a, 'r') }))
	add(ValProc("center", 3, func(a []value.V) value.V { return padString(a, 'c') }))
	add(ValProc("trim", 2, func(a []value.V) value.V {
		s := string(value.MustString(a[0]))
		c := value.NewCset(" ")
		if len(a) > 1 && !value.IsNull(value.Deref(a[1])) {
			c = value.MustCset(a[1])
		}
		i := len(s)
		for i > 0 && c.Contains(rune(s[i-1])) {
			i--
		}
		return value.String(s[:i])
	}))
	add(ValProc("map", 3, func(a []value.V) value.V {
		s := string(value.MustString(a[0]))
		from := "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
		to := "abcdefghijklmnopqrstuvwxyz"
		if len(a) > 1 && !value.IsNull(value.Deref(a[1])) {
			from = string(value.MustString(a[1]))
		}
		if len(a) > 2 && !value.IsNull(value.Deref(a[2])) {
			to = string(value.MustString(a[2]))
		}
		if len(from) != len(to) {
			value.Raise(value.ErrString, "map: unequal lengths", nil)
		}
		tbl := map[byte]byte{}
		for i := 0; i < len(from); i++ {
			tbl[from[i]] = to[i]
		}
		out := []byte(s)
		for i, ch := range out {
			if r, ok := tbl[ch]; ok {
				out[i] = r
			}
		}
		return value.String(out)
	}))
	add(ValProc("ord", 1, func(a []value.V) value.V {
		s := value.MustString(a[0])
		if len(s) != 1 {
			value.Raise(value.ErrString, "ord: one-character string expected", s)
		}
		return value.IntV(int64(s[0]))
	}))
	add(ValProc("char", 1, func(a []value.V) value.V {
		i := value.MustInt(a[0])
		if i < 0 || i > 255 {
			value.Raise(value.ErrInteger, "char: out of range", value.Deref(a[0]))
		}
		return value.String([]byte{byte(i)})
	}))
	add(ValProc("abs", 1, func(a []value.V) value.V {
		n := value.MustNumber(a[0])
		if value.NumCompare(n, value.NewInt(0)) < 0 {
			return value.Neg(n)
		}
		return n
	}))

	return b
}

func mustList(a []value.V, i int) *value.List {
	l, ok := value.Deref(a[i]).(*value.List)
	if !ok {
		value.Raise(value.ErrNotList, "list expected", value.Deref(a[i]))
	}
	return l
}

// subjectRange extracts the (s, i, j) convention of Icon string functions:
// args[base] is the subject, args[base+1] and args[base+2] optional
// positions defaulting to the whole string. It returns Go [lo,hi) offsets.
// hits is the step function generating, from i on while i < end(), the
// 1-based positions i+1 at which hit(i) holds.
func hits(i int, end func() int, hit func(i int) bool) func() (value.V, bool) {
	return func() (value.V, bool) {
		for ; i < end(); i++ {
			if hit(i) {
				i++
				return value.IntV(int64(i)), true
			}
		}
		return nil, false
	}
}

func subjectRange(args []value.V, base int) (s string, lo, hi int) {
	s = string(value.MustString(args[base]))
	i, j := 1, 0
	if len(args) > base+1 && !value.IsNull(value.Deref(args[base+1])) {
		i = value.MustInt(args[base+1])
	}
	if len(args) > base+2 && !value.IsNull(value.Deref(args[base+2])) {
		j = value.MustInt(args[base+2])
	}
	a, b, ok := value.SliceRange(i, j, len(s))
	if !ok {
		value.Raise(value.ErrIndex, "position out of range", nil)
	}
	return s, a, b
}

func padString(a []value.V, mode byte) value.V {
	s := string(value.MustString(a[0]))
	n := value.MustInt(a[1])
	pad := " "
	if len(a) > 2 && !value.IsNull(value.Deref(a[2])) {
		pad = string(value.MustString(a[2]))
	}
	if pad == "" {
		pad = " "
	}
	if len(s) >= n {
		switch mode {
		case 'l':
			return value.String(s[:n])
		case 'r':
			return value.String(s[len(s)-n:])
		default:
			off := (len(s) - n) / 2
			return value.String(s[off : off+n])
		}
	}
	fill := strings.Repeat(pad, (n-len(s))/len(pad)+1)
	switch mode {
	case 'l':
		return value.String(s + fill[:n-len(s)])
	case 'r':
		return value.String(fill[:n-len(s)] + s)
	default:
		left := (n - len(s)) / 2
		right := n - len(s) - left
		return value.String(fill[:right] + s + fill[:left])
	}
}

// insertionSort orders values in place by Icon's canonical order. The input
// sizes sort() sees in this library are small; simplicity wins.
func insertionSort(vs []value.V) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && value.Less(vs[j], vs[j-1]); j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}
