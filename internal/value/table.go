package value

import (
	"fmt"
	"sort"
	"strings"
)

// mapKey produces a Go-comparable key for a Unicon value, implementing
// Icon's equivalence for table keys and set members: numbers by numeric
// value, strings and csets by content, structures by identity.
func mapKey(v V) any {
	switch x := v.(type) {
	case nil, Null:
		return Null{}
	case Integer:
		if x.big != nil {
			return "big:" + x.big.String()
		}
		return x.small
	case Real:
		return float64(x)
	case String:
		return string(x)
	case *Cset:
		return "cset:" + x.Members()
	default:
		// Identity for lists, tables, sets, records, procedures,
		// co-expressions: the pointer itself is comparable.
		return v
	}
}

type tableEntry struct {
	key tKey
	val V
}

type tKey struct {
	norm any
	orig V
}

// Table is a Unicon table: an associative map from arbitrary values to
// values, with a default value produced for absent keys. Reference semantics.
type Table struct {
	m       map[any]*tableEntry
	defval  V
	counter int
}

// NewTable returns an empty table whose lookups of absent keys yield defval.
func NewTable(defval V) *Table {
	if defval == nil {
		defval = NullV
	}
	return &Table{m: make(map[any]*tableEntry), defval: defval}
}

func (t *Table) Type() string { return "table" }

func (t *Table) Image() string {
	var b strings.Builder
	fmt.Fprintf(&b, "table(%d)", len(t.m))
	return b.String()
}

// Len returns the number of entries (*T).
func (t *Table) Len() int { return len(t.m) }

// Default returns the table's default value.
func (t *Table) Default() V { return t.defval }

// Get returns the value stored under key, or the default value if absent.
func (t *Table) Get(key V) V {
	if e, ok := t.m[mapKey(key)]; ok {
		return e.val
	}
	return t.defval
}

// Has reports whether key is present (member built-in).
func (t *Table) Has(key V) bool {
	_, ok := t.m[mapKey(key)]
	return ok
}

// Set stores val under key.
func (t *Table) Set(key, val V) {
	k := mapKey(key)
	if e, ok := t.m[k]; ok {
		e.val = val
		return
	}
	t.m[k] = &tableEntry{key: tKey{norm: k, orig: key}, val: val}
}

// Delete removes key if present (delete built-in).
func (t *Table) Delete(key V) { delete(t.m, mapKey(key)) }

// Keys returns the keys in insertion-independent deterministic order
// (sorted by image), matching the determinism Icon's sort(T) provides.
func (t *Table) Keys() []V {
	out := make([]V, 0, len(t.m))
	for _, e := range t.m {
		out = append(out, e.key.orig)
	}
	sortValues(out)
	return out
}

// Copy returns a one-level copy.
func (t *Table) Copy() *Table {
	out := NewTable(t.defval)
	for k, e := range t.m {
		out.m[k] = &tableEntry{key: e.key, val: e.val}
	}
	return out
}

// Set is a Unicon set of values. Reference semantics.
type Set struct {
	m map[any]V
}

// NewSet returns a set of the given members.
func NewSet(members ...V) *Set {
	s := &Set{m: make(map[any]V, len(members))}
	for _, v := range members {
		s.Insert(v)
	}
	return s
}

func (s *Set) Type() string  { return "set" }
func (s *Set) Image() string { return fmt.Sprintf("set(%d)", len(s.m)) }

// Len returns the number of members (*S).
func (s *Set) Len() int { return len(s.m) }

// Insert adds v (insert built-in).
func (s *Set) Insert(v V) { s.m[mapKey(v)] = v }

// Delete removes v (delete built-in).
func (s *Set) Delete(v V) { delete(s.m, mapKey(v)) }

// Has reports membership (member built-in).
func (s *Set) Has(v V) bool {
	_, ok := s.m[mapKey(v)]
	return ok
}

// Members returns the members in deterministic (image-sorted) order.
func (s *Set) Members() []V {
	out := make([]V, 0, len(s.m))
	for _, v := range s.m {
		out = append(out, v)
	}
	sortValues(out)
	return out
}

// Copy returns a copy of the set.
func (s *Set) Copy() *Set {
	out := &Set{m: make(map[any]V, len(s.m))}
	for k, v := range s.m {
		out.m[k] = v
	}
	return out
}

// sortValues orders values by Icon's canonical sort order: by type class
// first (null, integer/real, string, cset, then structures), then by value.
func sortValues(vs []V) {
	sort.SliceStable(vs, func(i, j int) bool { return Less(vs[i], vs[j]) })
}

// typeRank gives the cross-type ordering used by sort().
func typeRank(v V) int {
	switch v.(type) {
	case nil, Null:
		return 0
	case Integer, Real:
		return 1
	case String:
		return 2
	case *Cset:
		return 3
	case *List:
		return 4
	case *Set:
		return 5
	case *Table:
		return 6
	case *Record:
		return 7
	case *Proc:
		return 8
	default:
		return 9
	}
}

// Less reports whether a sorts before b in Icon's canonical order.
func Less(a, b V) bool {
	ra, rb := typeRank(a), typeRank(b)
	if ra != rb {
		return ra < rb
	}
	switch ra {
	case 1:
		x, _ := ToReal(a)
		y, _ := ToReal(b)
		return float64(x) < float64(y)
	case 2:
		return a.(String) < b.(String)
	case 3:
		return a.(*Cset).Members() < b.(*Cset).Members()
	default:
		return Image(a) < Image(b)
	}
}

// Record is an instance of a Unicon record declaration.
type Record struct {
	Name   string
	Fields []string
	Values []V
}

// NewRecord constructs a record instance; missing values default to null.
func NewRecord(name string, fields []string, values []V) *Record {
	vals := make([]V, len(fields))
	for i := range vals {
		if i < len(values) && values[i] != nil {
			vals[i] = values[i]
		} else {
			vals[i] = NullV
		}
	}
	return &Record{Name: name, Fields: fields, Values: vals}
}

func (r *Record) Type() string { return "record " + r.Name }

func (r *Record) Image() string {
	var b strings.Builder
	fmt.Fprintf(&b, "record %s(", r.Name)
	for i, v := range r.Values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(Image(v))
	}
	b.WriteByte(')')
	return b.String()
}

// FieldIndex returns the index of the named field, or -1.
func (r *Record) FieldIndex(name string) int {
	for i, f := range r.Fields {
		if f == name {
			return i
		}
	}
	return -1
}
