package value

import "fmt"

// RuntimeError is the analogue of an Icon runtime error (e.g. error 102
// "numeric expected"). Kernel operators raise it by panicking, mirroring the
// fact that Icon runtime errors abort evaluation rather than being values;
// public API entry points recover it into an ordinary Go error (see
// core.Protect and the root package).
type RuntimeError struct {
	Code    int    // Icon error number where one exists, else 0
	Message string // description, e.g. "numeric expected"
	Offend  V      // offending value, if any
}

func (e *RuntimeError) Error() string {
	if e.Offend != nil {
		return fmt.Sprintf("runtime error %d: %s: offending value %s", e.Code, e.Message, Image(e.Offend))
	}
	return fmt.Sprintf("runtime error %d: %s", e.Code, e.Message)
}

// Raise panics with a RuntimeError carrying the given Icon error code.
func Raise(code int, message string, offend V) {
	panic(&RuntimeError{Code: code, Message: message, Offend: offend})
}

// Icon runtime error codes used by the kernel.
const (
	ErrInteger      = 101 // integer expected or out of range
	ErrNumeric      = 102 // numeric expected
	ErrString       = 103 // string expected
	ErrCset         = 104 // cset expected
	ErrProcedure    = 106 // procedure or integer expected
	ErrIndex        = 205 // subscript out of range handled as failure in Icon; kept for lvalue misuse
	ErrNotList      = 108 // list expected
	ErrNotTable     = 124 // table expected
	ErrDivideByZero = 201 // division by zero
	ErrNotCoexpr    = 118 // co-expression expected
	ErrField        = 207 // missing record field
)
