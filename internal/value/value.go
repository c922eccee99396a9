// Package value implements the Unicon value system used by the goal-directed
// iterator kernel: integers with transparent big-integer promotion, reals,
// strings, csets, lists, tables, sets, records, procedures and the null
// value, together with Icon's coercion rules and operator semantics.
//
// A value is anything implementing V. Failure is deliberately NOT a value:
// the iterator protocol (see Gen) signals failure out of band, exactly as the
// paper's IconIterator kernel terminates iteration when next() fails.
package value

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"
)

// V is a Unicon value. Every value reports its Icon type name (as the type()
// built-in would) and an Image, the machine-readable textual form produced by
// the image() built-in.
type V interface {
	// Type returns the Icon type name: "null", "integer", "real", "string",
	// "cset", "list", "table", "set", "procedure", "record", "co-expression".
	Type() string
	// Image returns the image() form of the value, e.g. `"abc"` for strings.
	Image() string
}

// Gen is the suspendable, failure-driven iterator protocol at the heart of
// goal-directed evaluation. Next produces the next value of the result
// sequence, or reports failure with ok == false. Following the paper (§5B),
// after failure an iterator is restarted by the following Next call; Restart
// forces that reset eagerly (the ^ operator of the calculus).
type Gen interface {
	Next() (V, bool)
	Restart()
}

// Null is the unique null value, &null.
type Null struct{}

// NullV is the canonical null value.
var NullV = Null{}

func (Null) Type() string  { return "null" }
func (Null) Image() string { return "&null" }

// IsNull reports whether v is the null value (or a nil interface).
func IsNull(v V) bool {
	if v == nil {
		return true
	}
	_, ok := v.(Null)
	return ok
}

// Integer is a Unicon integer. Values that fit in an int64 are stored
// unboxed; larger magnitudes are transparently promoted to *big.Int, giving
// the arbitrary-precision arithmetic that is implicit in Unicon (§VII).
type Integer struct {
	small int64
	big   *big.Int // nil when the value fits in small
}

// NewInt returns the integer value i.
func NewInt(i int64) Integer { return Integer{small: i} }

// Small integers are interned pre-boxed: converting an Integer to the V
// interface normally heap-allocates the 16-byte struct, which is the single
// allocation on kernel hot yield paths (range generators, arithmetic fast
// paths, sizes). The table spans the values such paths overwhelmingly
// produce.
const (
	internLo = -256
	internHi = 1024
)

var internedInts [internHi - internLo + 1]V

func init() {
	for i := range internedInts {
		internedInts[i] = Integer{small: int64(internLo + i)}
	}
}

// IntV returns the integer value i boxed as a V, interned for small i so
// that hot yields do not allocate. Integers carry no identity in Icon
// (=== compares by value), so sharing the boxed representation is
// unobservable.
func IntV(i int64) V {
	if i >= internLo && i <= internHi {
		return internedInts[i-internLo]
	}
	return Integer{small: i}
}

// BigV returns b boxed as a V, demoting to the unboxed (and possibly
// interned) small form when b fits in an int64. The caller must not mutate
// b afterwards.
func BigV(b *big.Int) V {
	if b.IsInt64() {
		return IntV(b.Int64())
	}
	return Integer{big: b}
}

// NewBig returns an integer value for b, demoting to the unboxed form when b
// fits in an int64. The caller must not mutate b afterwards.
func NewBig(b *big.Int) Integer {
	if b.IsInt64() {
		return Integer{small: b.Int64()}
	}
	return Integer{big: b}
}

// IsBig reports whether the integer is stored in promoted big form.
func (i Integer) IsBig() bool { return i.big != nil }

// Int64 returns the value as an int64 and whether it fits.
func (i Integer) Int64() (int64, bool) {
	if i.big != nil {
		if i.big.IsInt64() {
			return i.big.Int64(), true
		}
		return 0, false
	}
	return i.small, true
}

// Big returns the value as a big.Int. The result must not be mutated.
func (i Integer) Big() *big.Int {
	if i.big != nil {
		return i.big
	}
	return big.NewInt(i.small)
}

// Sign returns -1, 0 or +1 according to the sign of i.
func (i Integer) Sign() int {
	if i.big != nil {
		return i.big.Sign()
	}
	switch {
	case i.small < 0:
		return -1
	case i.small > 0:
		return 1
	}
	return 0
}

func (i Integer) Type() string { return "integer" }
func (i Integer) Image() string {
	if i.big != nil {
		return i.big.String()
	}
	return strconv.FormatInt(i.small, 10)
}

// Real is a Unicon real (float64).
type Real float64

func (Real) Type() string { return "real" }
func (r Real) Image() string {
	s := strconv.FormatFloat(float64(r), 'g', -1, 64)
	// Icon prints reals with a decimal point or exponent.
	if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && !strings.Contains(s, "NaN") {
		s += ".0"
	}
	return s
}

// String is a Unicon string.
type String string

func (String) Type() string { return "string" }
func (s String) Image() string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range string(s) {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Image returns the image of any value, tolerating nil.
func Image(v V) string {
	if v == nil {
		return "&null"
	}
	return v.Image()
}

// TypeOf returns the Icon type name of v, tolerating nil.
func TypeOf(v V) string {
	if v == nil {
		return "null"
	}
	return v.Type()
}

// Str returns the "written" form of v: like Image but without quoting
// strings, matching what write() prints.
func Str(v V) string {
	if v == nil {
		return ""
	}
	switch x := v.(type) {
	case String:
		return string(x)
	case Null:
		return ""
	default:
		return v.Image()
	}
}

// GoString makes values print usefully under %v in tests.
func (i Integer) String() string { return i.Image() }

func (r Real) String() string { return r.Image() }

var _ = fmt.Stringer(Integer{})
