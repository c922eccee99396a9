// Package junicon is a Go implementation of concurrent generators and
// their mixed-language embedding, reproducing Mills & Jeffery, "Embedding
// Concurrent Generators" (IPDPS HIPS 2016).
//
// The library has three layers:
//
//  1. A goal-directed generator kernel: every expression is a suspendable,
//     failure-driven iterator (Gen); composition forms — Product (&),
//     Alt (|), Limit (\), In (bound iteration), Promote (!) — implement
//     Icon/Unicon's goal-directed evaluation over a dynamic value system
//     with arbitrary-precision integers, strings, csets, lists, tables,
//     sets and records.
//
//  2. The calculus of concurrent generators (the paper's Figure 1):
//     first-class generators (<>e, FirstClass), co-expressions that shadow
//     their environment (|<>e, NewCoExpr), and pipes — multithreaded
//     generator proxies communicating through blocking queues (|>e,
//     NewPipe) — with activation (@, Step), promotion (!, Bang) and
//     refresh (^, Refresh), plus higher-order abstractions (DataParallel
//     map-reduce) built from them.
//
//  3. Mixed-language embedding: scoped annotations (@<script
//     lang="junicon"> … @</script>) located by a host-grammar-oblivious
//     metaparser, an LL(k) parser for the Junicon subset, the §5A
//     normalization that flattens nested generators into products of bound
//     iterators, a compiler to bytecode run in resumable frames (every
//     unit compiles; only an embedding's Env lacking a scan environment,
//     DefineGlobal or native table is refused), and a translator emitting
//     Go from the same compiled code.
//
// # Quickstart
//
//	// (1 to 2) * isprime(4 to 7), the paper's running example:
//	in := junicon.NewInterp()
//	in.LoadProgram(`
//	  def isprime(n) {
//	    if n < 2 then fail;
//	    every d := 2 to n-1 do { if not (n % d ~= 0) then fail };
//	    return n;
//	  }`)
//	results, _ := in.Eval("(1 to 2) * isprime(4 to 7)", 0)
//	// results: 5, 7, 10, 14
//
// See the examples directory for pipelines, map-reduce and mixed-language
// embedding, and EXPERIMENTS.md for the reproduction of the paper's
// evaluation.
package junicon

import (
	"junicon/internal/core"
	"junicon/internal/value"
)

// Value is a Unicon value: integer (arbitrary precision), real, string,
// cset, list, table, set, record, procedure, co-expression or null.
type Value = value.V

// Gen is the goal-directed iterator protocol: Next produces the next
// result or reports failure (ok == false); Restart rewinds. Iterators
// auto-restart after failure, enabling backtracking composition.
type Gen = value.Gen

// Var is a reified variable — an updatable reference with get/set
// closures (the paper's IconVar).
type Var = value.Var

// RuntimeError is an Icon runtime error (numeric expected, division by
// zero, …) surfaced as a Go error by the evaluation entry points.
type RuntimeError = value.RuntimeError

// ---- value constructors ----

// Int returns an integer value.
func Int(i int64) Value { return value.NewInt(i) }

// Real returns a real value.
func Real(f float64) Value { return value.Real(f) }

// Str returns a string value.
func Str(s string) Value { return value.String(s) }

// Null is the null value.
func Null() Value { return value.NullV }

// List is a Unicon list value.
type List = value.List

// Table is a Unicon table value.
type Table = value.Table

// Set is a Unicon set value.
type Set = value.Set

// NewList returns a list of the given elements.
func NewList(elems ...Value) *List { return value.NewList(elems...) }

// NewTable returns a table with the given default value for absent keys.
func NewTable(defval Value) *Table { return value.NewTable(defval) }

// NewSet returns a set of the given members.
func NewSet(members ...Value) *Set { return value.NewSet(members...) }

// NewCell returns a free-standing reified variable holding v.
func NewCell(v Value) *Var { return value.NewCell(v) }

// Proc wraps a Go function as a goal-directed procedure value: returning
// nil means failure, so host functions participate in backtracking search.
func Proc(name string, arity int, f func(args []Value) Value) Value {
	return core.ValProc(name, arity, f)
}

// GenProc wraps a push-style generator function as a procedure value — the
// analogue of a Unicon method containing suspend.
func GenProc(name string, arity int, body func(args []Value, yield func(Value) bool)) Value {
	return core.GenProc(name, arity, body)
}

// Image returns the image() form of a value.
func Image(v Value) string { return value.Image(v) }

// ToInt converts a value to an int64 under Icon coercion.
func ToInt(v Value) (int64, bool) {
	i, ok := value.ToInteger(v)
	if !ok {
		return 0, false
	}
	return i.Int64()
}

// ToFloat converts a value to a float64 under Icon coercion.
func ToFloat(v Value) (float64, bool) {
	r, ok := value.ToReal(v)
	return float64(r), ok
}

// ToStr converts a value to a string under Icon coercion.
func ToStr(v Value) (string, bool) {
	s, ok := value.ToString(v)
	return string(s), ok
}

// Protect runs f, converting an Icon runtime-error panic raised by kernel
// operations into an ordinary error.
func Protect(f func()) error { return core.Protect(f) }
