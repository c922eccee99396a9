package semtest

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"junicon/internal/core"
	"junicon/internal/interp"
	"junicon/internal/pipe"
	"junicon/internal/pool"
)

// Compiled lanes: the case evaluates on a vm-enabled interpreter, so any
// unit the bytecode compiler can lower runs as a slot-framed machine and
// the rest tree-walks. The vm's contract is the same as every other knob
// in this harness: pure performance, identical trace.

// compiledGen evaluates the case on a vm-enabled interpreter.
func compiledGen(c Case) (core.Gen, error) {
	in, err := newInterp(c, interp.WithVM())
	if err != nil {
		return nil, err
	}
	g, err := in.EvalGen(c.Expr)
	if err != nil {
		return nil, fmt.Errorf("eval %s: %w", c.Name, err)
	}
	return g, nil
}

// Compiled evaluates the case under the bytecode vm, no transport.
func Compiled(c Case) (Result, error) {
	g, err := compiledGen(c)
	if err != nil {
		return Result{}, err
	}
	return drainGen(g, c.max()), nil
}

// CompiledBatched drains the compiled generator through a batched pipe —
// compiled frames must compose with the transport grid unchanged.
func CompiledBatched(c Case, buffer, batch int) (Result, error) {
	g, err := compiledGen(c)
	if err != nil {
		return Result{}, err
	}
	return drainPipe(pipe.FromGenBatched(g, buffer, batch), c.max()), nil
}

// CompiledPooled is CompiledBatched with the producer on a pool worker.
func CompiledPooled(c Case, pl *pool.Pool, buffer, batch int) (Result, error) {
	g, err := compiledGen(c)
	if err != nil {
		return Result{}, err
	}
	return drainPipe(pipe.FromGenBatched(g, buffer, batch).OnPool(pl), c.max()), nil
}

// RandomExpr generates a random goal-directed expression from a small
// grammar of generator forms: ranges, alternation, products, limits,
// repeated alternation, promotion, arithmetic and comparisons over
// generators, if/else, not, and list formation. Every production
// terminates (repeated alternation is always limited), so the result
// sequence is finite; type errors (string operands under arithmetic) and
// division or remainder by zero are possible by construction and
// legitimate — a raised error is part of the observable trace and must
// reproduce identically on every lane.
func RandomExpr(rng *rand.Rand, depth int) string {
	if depth <= 0 {
		switch rng.Intn(5) {
		case 0:
			return strconv.Itoa(rng.Intn(10))
		case 1:
			return strconv.Itoa(1 + rng.Intn(5))
		case 2:
			return `"` + string(rune('a'+rng.Intn(3))) + `"`
		case 3:
			return edgeLeaves[rng.Intn(len(edgeLeaves))]
		default:
			return "&null"
		}
	}
	sub := func() string { return RandomExpr(rng, depth-1) }
	switch rng.Intn(12) {
	case 0:
		return fmt.Sprintf("(%d to %d)", rng.Intn(6), rng.Intn(12))
	case 1:
		return fmt.Sprintf("(%d to %d by %d)", rng.Intn(8), rng.Intn(8), 1+rng.Intn(3))
	case 2:
		return "(" + sub() + " | " + sub() + ")"
	case 3:
		return "(" + sub() + " & " + sub() + ")"
	case 4:
		op := []string{"+", "-", "*", "/", "%"}[rng.Intn(5)]
		rhs := sub()
		if rng.Intn(2) == 0 {
			rhs = edgeLeaves[rng.Intn(len(edgeLeaves))]
		}
		return "(" + sub() + " " + op + " " + rhs + ")"
	case 5:
		op := []string{"<", "<=", ">", "~="}[rng.Intn(4)]
		return "(" + sub() + " " + op + " " + sub() + ")"
	case 6:
		return fmt.Sprintf("(%s \\ %d)", sub(), rng.Intn(4))
	case 7:
		return fmt.Sprintf("((|%s) \\ %d)", sub(), 1+rng.Intn(5))
	case 8:
		return "![" + sub() + ", " + sub() + "]"
	case 9:
		return "!" + `"` + strings.Repeat("ab", 1+rng.Intn(2)) + `"`
	case 10:
		return "(if " + sub() + " then " + sub() + " else " + sub() + ")"
	case 11:
		return "(not " + sub() + ")"
	}
	return "1"
}

// edgeLeaves are the numbers at the edges of integer arithmetic: the int64
// extremes and a power of two whose double overflows (promotion to big
// integers), both sides of the interned small-integer window, and a real
// (mixed operands). With / and % among the operators and 0 among the
// small leaves, division and remainder by zero come up too.
var edgeLeaves = []string{
	"9223372036854775807", "(-9223372036854775807)", "4611686018427387904",
	"1024", "1025", "(-256)", "(-257)", "2.5",
}

// StatefulPrelude declares what StatefulExpr's expressions call.
const StatefulPrelude = `
def gen(a, b) { suspend a to b; }
def tick() { static n, base := 10; initial n := base; n +:= 1; return n; }
def words(s) { s ? { while tab(upto(&letters)) do { w := tab(many(&letters)); suspend w; }; }; }
`

// StatefulExpr generates a random expression over the forms whose state
// outlives one pass over an expression — reversible assignment and
// exchange, string scanning, co-expression create/activate/refresh, pipes
// and static counters — nested under alternation, product and limit so
// their undo, environment swap and refresh paths run in every order
// backtracking can reach them. Sequences are finite; raised errors are
// part of the trace, as in RandomExpr.
func StatefulExpr(rng *rand.Rand, depth int) string {
	n := func() int { return 1 + rng.Intn(4) }
	var ints func(d int) string
	ints = func(d int) string {
		if d <= 0 {
			return strconv.Itoa(n())
		}
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("(%d to %d)", n(), n()+2)
		case 1:
			return fmt.Sprintf("gen(%d, %d)", n(), n()+1)
		case 2:
			return "(" + ints(d-1) + " | " + ints(d-1) + ")"
		default:
			return "(" + ints(d-1) + " + " + ints(d-1) + ")"
		}
	}
	if depth <= 0 {
		return ints(1)
	}
	sub := func() string { return StatefulExpr(rng, depth-1) }
	g := func() string { return ints(1) }
	switch rng.Intn(16) {
	case 0:
		return fmt.Sprintf("{ x := %d; ((x <- %s) > %d) | x }", n(), g(), n()+1)
	case 1:
		return fmt.Sprintf("{ x := %d; (x <- %s) > 9; x }", n(), g())
	case 2:
		return fmt.Sprintf("{ a := %d; b := %s; ((a <-> b) & (a > b)) | [a, b] }", n(), g())
	case 3:
		return fmt.Sprintf("{ L := [%d, %d]; r := %d; L[1] :=: r; (L[2] <- %s) & [L[1], L[2], r] }", n(), n(), n(), g())
	case 4:
		return fmt.Sprintf(`("abcdefgh" ? (tab(%s) || "-" || move(%s)))`, g(), g())
	case 5:
		return `("a1b22c333" ? (tab(upto(&digits)) & [&pos, tab(many(&digits)), &subject[&pos]]))`
	case 6:
		return fmt.Sprintf(`("k=v;kk=vv" ? { (k := tab(upto('='))) & ="=" & (&pos <- %s) & [k, tab(upto(';') | 0)] })`, g())
	case 7:
		return fmt.Sprintf(`(words("it was the best") || %s)`, g())
	case 8:
		return fmt.Sprintf("{ c := |<> %s; [@c, @c, *c] }", g())
	case 9:
		return fmt.Sprintf("{ c := |<> %s; @c; d := ^c; (!d) + (@c | 0) }", g())
	case 10:
		return fmt.Sprintf("{ y := %d; c := |<> (y +:= %s); y := 50; (%d @ c) + y }", n(), g(), n())
	case 11:
		return fmt.Sprintf("{ p := |> %s; q := |> gen(1, %d); [@p, !q] }", g(), n())
	case 12:
		return "(tick() + " + g() + ")"
	case 13:
		return "(" + sub() + " | " + sub() + ")"
	case 14:
		return "(" + sub() + " & " + sub() + ")"
	default:
		return fmt.Sprintf("(%s \\ %d)", sub(), 1+rng.Intn(3))
	}
}
