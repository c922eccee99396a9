package wire

import (
	"fmt"
	"math"

	"junicon/internal/value"
)

// Fields reads a decoded value tree field by field, for formats laid out
// as positional lists (checkpoint blobs). The first field of the wrong
// type, arity or range sets Err to a *ShapeError naming it; every read
// after that returns a zero value, so a reader checks Err once after a run
// of reads.
type Fields struct{ Err error }

// ShapeError names a field of a decoded value tree that is not what its
// reader expects.
type ShapeError struct{ Msg string }

func (e *ShapeError) Error() string { return e.Msg }

// Fail records a shape error unless one is already recorded.
func (r *Fields) Fail(format string, args ...any) {
	if r.Err == nil {
		r.Err = &ShapeError{Msg: fmt.Sprintf(format, args...)}
	}
}

// List returns the elements of list v, which must have n of them (any
// number when n < 0). On a shape error it returns n nulls, so the caller
// may index the fields it asked for before it checks Err.
func (r *Fields) List(v value.V, n int, what string) []value.V {
	if r.Err == nil {
		l, ok := value.Deref(v).(*value.List)
		switch {
		case !ok:
			r.Fail("%s is %s, want list", what, value.TypeOf(v))
		case n >= 0 && l.Len() != n:
			r.Fail("%s has %d fields, want %d", what, l.Len(), n)
		default:
			return l.Elems()
		}
	}
	return value.NewListSize(n, value.NullV).Elems()
}

// Int reads an integer that fits an int64.
func (r *Fields) Int(v value.V, what string) int64 {
	if r.Err != nil {
		return 0
	}
	i, ok := value.ToInteger(value.Deref(v))
	if !ok {
		r.Fail("%s is %s, want integer", what, value.TypeOf(v))
		return 0
	}
	n, ok := i.Int64()
	if !ok {
		r.Fail("%s out of range", what)
	}
	return n
}

// Int32 reads an integer that fits an int32.
func (r *Fields) Int32(v value.V, what string) int32 {
	n := r.Int(v, what)
	if n < math.MinInt32 || n > math.MaxInt32 {
		r.Fail("%s out of int32 range", what)
		return 0
	}
	return int32(n)
}

// String reads a string.
func (r *Fields) String(v value.V, what string) string {
	if r.Err != nil {
		return ""
	}
	s, ok := value.Deref(v).(value.String)
	if !ok {
		r.Fail("%s is %s, want string", what, value.TypeOf(v))
	}
	return string(s)
}
