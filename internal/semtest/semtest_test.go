package semtest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/interp"
	"junicon/internal/pipe"
	"junicon/internal/pool"
	"junicon/internal/queue"
	"junicon/internal/remote"
	"junicon/internal/value"
)

// corpus returns the differential cases: hand-written kernel expressions,
// the repository's testdata/ programs driven through their generator
// procedures, and error-propagation cases whose sequences end in failure.
func corpus(t *testing.T) []Case {
	t.Helper()
	cases := []Case{
		{Name: "range", Expr: "1 to 10"},
		{Name: "empty", Expr: "1 > 2"},
		{Name: "single", Expr: "42"},
		{Name: "alternation", Expr: "(1 to 3) | (7 to 9) | 100"},
		{Name: "product", Expr: "(1 to 5) & (1 to 3)"},
		{Name: "arith-over-gens", Expr: "(1 to 4) * (1 to 4)"},
		{Name: "nested-lists", Expr: "[1 to 3, [4 | 5]]"},
		{Name: "comparison-filter", Expr: "(1 to 20) % 3 > 1"},
		{Name: "strings", Expr: "(\"a\" | \"bc\") || (\"x\" | \"yz\")"},
		{Name: "big-stream", Expr: "1 to 3000"},
	}
	// Programs from testdata/, driven through their suspend-ing
	// procedures. coordinate.jn and pipeline.jn need host-bound natives
	// (this::compile, the lines global), so they stay on the interpreter
	// examples path; everything self-contained runs here.
	load := func(name string) string {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatalf("corpus: %v", err)
		}
		return string(src)
	}
	concurrent := load("concurrent.jn")
	cases = append(cases,
		Case{Name: "concurrent/evens", Program: concurrent, Expr: "evens(20)"},
		Case{Name: "concurrent/piped", Program: concurrent, Expr: "piped(7)"},
		Case{Name: "concurrent/refreshed", Program: concurrent, Expr: "refreshed(6)"},
		Case{Name: "concurrent/restartPipe", Program: concurrent, Expr: "restartPipe(5)"},
		Case{Name: "queens", Program: load("queens.jn"), Expr: "queens(5)"},
		// place() suspends with its recursive call live: a compiled frame
		// keeps the children cached at its call sites until it returns.
		Case{Name: "queens/6", Program: load("queens.jn"), Expr: "queens(6)"},
		Case{Name: "primes", Program: load("quickstart.jn"), Expr: "primesBelow(60)"},
		Case{Name: "scanner/tokens", Program: load("scanner.jn"), Expr: "tokens(\"  12 abc x9  7 \")"},
		Case{Name: "scanner/pairs", Program: load("scanner.jn"), Expr: "pairs(\"a=1;b=22;c=333;\")"},
	)
	// One case per construct the bytecode compiler lowered in PR 12, so
	// every lane — each evaluator's, Remote, Muxed, Killed, Migrated — pins
	// it against the tree walk. revassign/undo-one-result is the divergence
	// PR 11 found: -O fused `x_N in (x <- 5)` as a one-result term and never
	// resumed it, so the undo never ran (0 under the tree walk, 5 under -O
	// and, through the fallback's facts, under -vm).
	const lowered = `
def undoOne() { x := 0; (x <- 5) > 9; return x; }
def firstAbove(k) { x := 0; if (x <- (1 to 10)) > k then return x; return x; }
def swapped(a, b) { ((a <-> b) & (a > 99)) | (a :=: b); return [a, b]; }
def tick() { static n; initial n := 0; n +:= 1; return n; }
def ticks(k) { every i := 1 to k do suspend tick(); }
def stepped(limit) {
  c := |<> (1 to limit);
  s := 0;
  while x := @c do { s +:= x; suspend s; };
  c := ^c;
  suspend *c | @c | 100 @ c;
}
def fields(s) {
  s ? {
    while tab(upto(&letters)) do {
      w := tab(many(&letters));
      if w == "skip" then next;
      if w == "stop" then return &pos;
      suspend w || ":" || &pos;
    };
  };
}
def scanned(s) { suspend s ? (tab(upto(',')) || "|" || (="," & tab(0 | -1))); }
def perCycle() { x := 0; every v := (|([x, 7][1])) \ 3 do { suspend v; x +:= 1; }; }
global count
def counted() { count := (\count | 0) + 1; return count; }
`
	cases = append(cases,
		Case{Name: "revassign/undo-one-result", Program: lowered, Expr: "undoOne()"},
		Case{Name: "revassign/undo-one-result-top-level", Expr: "{ x := 0; (x <- 5) > 9; x }"},
		Case{Name: "revassign/first-above", Program: lowered, Expr: "firstAbove(3 to 11 by 4)"},
		Case{Name: "revassign/swap", Program: lowered, Expr: "swapped(1 to 2, 7)"},
		Case{Name: "static/ticks", Program: lowered, Expr: "ticks(4) | tick()"},
		// Repeated alternation over a call or a read whose value changes
		// between cycles — a static counter, a local the loop body moves,
		// a declared global a procedure assigns: each cycle must re-read
		// (11 12 13 14, not 11 11 11 11). The cases keep the names the
		// test floor knows them by: they were written against -O's
		// product-prefix fusion, which evaluated such a prefix once.
		Case{Name: "static/fused-call", Program: lowered, Expr: "(|(tick() + 10)) \\ 4"},
		Case{Name: "static/fused-list", Program: lowered, Expr: "(|([tick(), 7][1])) \\ 3"},
		Case{Name: "fused/prefix-per-cycle", Program: lowered, Expr: "perCycle()"},
		Case{Name: "fused/global-write", Program: lowered, Expr: "(|(counted() + 10)) \\ 3"},
		Case{Name: "coexpr/stepped", Program: lowered, Expr: "stepped(5)"},
		Case{Name: "scan/statement", Program: lowered, Expr: "fields(\"ab skip cd,ef stop gh\")"},
		Case{Name: "scan/expression", Program: lowered, Expr: "scanned(\"a,b\" | \"no\" | \"x,y,z\")"},
	)
	// The constructs the compiler lowered last, pinned the same way: a
	// bare <> sharing the creating scope's variables in both directions
	// (in a procedure and at top level), ?x over operands with one element
	// (so the trace is deterministic), and assignment through targets
	// other than a name — element references and alternatives. And a
	// break out of an expression-position scan, which must restore the
	// scan environment it leaves.
	const shared = `
def sharedCounter() { x := 1; g := <> (x +:= 10); @g; x +:= 1; suspend x | @g | x; }
def zeroed(L) { every !L := 0; return L; }
def bumped(L) { every !L +:= 1; return L; }
def either() { a := 1; b := 2; every (a | b) := 7; return [a, b]; }
def picks() { suspend ?[5] | ?"z" | ?1 | (?[] | "none"); }
def nestedShare() { c := |<> { y := 1; g := <> (y +:= 1); @g; L := [1, 2]; every !L := y; L }; return @c; }
def leftScan() { every i := 1 to 3 do { x := ("xyz" ? (move(1) & break)); }; return &subject; }
`
	cases = append(cases,
		Case{Name: "lowered/shared-first-class", Program: shared, Expr: "sharedCounter()"},
		Case{Name: "lowered/shared-first-class-top-level", Expr: "{ y := 5; g := <> (y +:= 1); @g; [y, @g] }"},
		Case{Name: "lowered/bang-target", Program: shared, Expr: "zeroed([1, 2, 3]) | bumped([1, 2])"},
		Case{Name: "lowered/alternative-target", Program: shared, Expr: "either()"},
		Case{Name: "lowered/random-element", Program: shared, Expr: "picks()"},
		Case{Name: "lowered/shared-inside-coexpression", Program: shared, Expr: "nestedShare()"},
		Case{Name: "scan/break-leaves", Program: shared, Expr: "leftScan()"},
	)
	// A global named like a builtin is null from its declaration on, and
	// a procedure, which resolves the name when it runs, sees the global.
	const declared = `
def probe() { return image(left); }
global left
def set() { left := "set"; return image(left); }
`
	cases = append(cases,
		Case{Name: "declared/builtin-name", Program: declared, Expr: "image(left) | probe() | set() | probe()"},
	)
	// Failure propagation: sequences that raise a runtime error after
	// zero or several values. The dynamic type error hides behind a
	// procedure call so the static analyzer cannot reject the source
	// stream before it runs.
	const failing = `def double(x) { return x * 2; }`
	cases = append(cases,
		Case{Name: "fail/immediately", Program: failing, Expr: "double(\"abc\")"},
		Case{Name: "fail/mid-stream", Program: failing, Expr: "(1 to 5) | double(\"abc\")"},
	)
	// A form the tree walk raises on compiles to a raise of its error, for
	// the VM and for translated code alike.
	cases = append(cases,
		Case{Name: "raise/keyword", Program: `def now() { return &time; }`, Expr: "(1 to 2) | now()"},
	)
	// A break or next no loop of a co-expression or pipe body catches
	// raises in the body, a unit of its own, not in the activating loop.
	cases = append(cases,
		Case{Name: "raise/break-in-coexpr", Expr: "every i := 1 to 3 do @(|<> break)"},
		Case{Name: "raise/next-in-coexpr", Expr: "every i := 1 to 3 do @(|<> (i & next))"},
	)
	return cases
}

// loopback starts a source-serving loopback server shared by a test.
func loopback(t *testing.T) string {
	t.Helper()
	s := remote.NewServer()
	s.AllowSource = true
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("loopback server: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return addr.String()
}

func reference(t *testing.T, c Case) Result {
	t.Helper()
	ref, err := Sequential(c)
	if err != nil {
		t.Fatalf("%s: sequential reference: %v", c.Name, err)
	}
	return ref
}

// TestDifferentialCorpusGrid is the headline check: every corpus case,
// through every buffer × batch cell of the local grid and through the
// remote transport, must reproduce the sequential trace exactly.
func TestDifferentialCorpusGrid(t *testing.T) {
	addr := loopback(t)
	for _, c := range corpus(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			ref := reference(t, c)
			for _, cell := range Grid() {
				got, err := Batched(c, cell.Buffer, cell.Batch)
				if err != nil {
					t.Fatalf("batched %+v: %v", cell, err)
				}
				if !got.Equal(ref) {
					t.Fatalf("batched %+v diverged:\nref = %s\ngot = %s", cell, ref, got)
				}
			}
			for _, cfg := range []remote.Config{
				{Buffer: 1, Batch: 2},
				{Buffer: 8, Batch: -1}, // runs of one
				{Buffer: 64},           // DefaultBatch
			} {
				got, err := Remote(c, addr, cfg)
				if err != nil {
					t.Fatalf("remote %+v: %v", cfg, err)
				}
				if !got.Equal(ref) {
					t.Fatalf("remote %+v diverged:\nref = %s\ngot = %s", cfg, ref, got)
				}
			}
		})
	}
}

// TestRefusedOpenIsNoTrace: an OPEN the server refuses (here a parse
// error) is a harness error on every remote lane, never a failed trace
// that a refusing reference would match; and a producer error is a trace
// whatever its message says, even when it quotes a refusal's words.
func TestRefusedOpenIsNoTrace(t *testing.T) {
	addr := loopback(t)
	d := &remote.Dialer{}
	defer d.Close()
	unparsable := Case{Name: "unparsable", Expr: "(1 to"}
	if r, err := Remote(unparsable, addr, remote.Config{}); err == nil {
		t.Fatalf("remote lane gave a trace for a refused OPEN: %s", r)
	}
	if r, err := Muxed(unparsable, d, addr, remote.Config{}, 1); err == nil {
		t.Fatalf("muxed lane gave a trace for a refused OPEN: %s", r)
	}
	raising := Case{Name: "raising", Program: `def add(x) { return 1 + x; }`, Expr: `add("parse error, vet rejected")`}
	ref := reference(t, raising)
	if r, err := Remote(raising, addr, remote.Config{}); err != nil || !r.Equal(ref) {
		t.Fatalf("remote lane on a producer error: %s, %v; want %s", r, err, ref)
	}
	if r, err := Muxed(raising, d, addr, remote.Config{}, 1); err != nil || !r.Equal(ref) {
		t.Fatalf("muxed lane on a producer error: %s, %v; want %s", r, err, ref)
	}
}

// TestDifferentialPooledGrid runs the corpus through pipes whose producers
// execute on reused pool workers: every buffer × batch cell of the grid,
// over pools of 1 worker (all producers fully serialized) and 4. Pooled
// execution is a scheduling change only; each trace must match the
// sequential reference exactly, including the failure-propagation cases
// (a producer error must release its worker back to the pool).
func TestDifferentialPooledGrid(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pl := pool.New(workers)
			defer pl.Shutdown()
			for _, c := range corpus(t) {
				ref := reference(t, c)
				for _, cell := range Grid() {
					got, err := Pooled(c, pl, cell.Buffer, cell.Batch)
					if err != nil {
						t.Fatalf("%s pooled %+v: %v", c.Name, cell, err)
					}
					if !got.Equal(ref) {
						t.Fatalf("%s pooled %+v diverged:\nref = %s\ngot = %s", c.Name, cell, ref, got)
					}
				}
			}
		})
	}
}

// TestDifferentialFusedGrid is WithOptimize's semantic gate (the test
// floor pins the name, which predates what the option now means): every
// corpus case evaluated under interp.WithOptimize — directly, through every buffer × batch cell
// of the transport grid, and on pooled workers — must reproduce the
// sequential trace exactly. Any divergence means an inlining or
// buffer-sizing decision changed the language, not just its speed.
func TestDifferentialFusedGrid(t *testing.T) {
	evaluatorGrid(t, "optimized", interp.WithOptimize())
}

// evaluatorGrid is an evaluator's semantic gate: every corpus case
// evaluated on eval — directly, through every buffer × batch cell of the
// transport grid, and on pooled workers — must reproduce the tree-walk
// sequential trace exactly.
func evaluatorGrid(t *testing.T, name string, eval interp.Option) {
	pl := pool.New(4)
	defer pl.Shutdown()
	for _, c := range corpus(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			ref := reference(t, c)
			got, err := Sequential(c, eval)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !got.Equal(ref) {
				t.Fatalf("%s diverged:\nref = %s\ngot = %s", name, ref, got)
			}
			for _, cell := range Grid() {
				got, err := Batched(c, cell.Buffer, cell.Batch, eval)
				if err != nil {
					t.Fatalf("%s batched %+v: %v", name, cell, err)
				}
				if !got.Equal(ref) {
					t.Fatalf("%s batched %+v diverged:\nref = %s\ngot = %s", name, cell, ref, got)
				}
				got, err = Pooled(c, pl, cell.Buffer, cell.Batch, eval)
				if err != nil {
					t.Fatalf("%s pooled %+v: %v", name, cell, err)
				}
				if !got.Equal(ref) {
					t.Fatalf("%s pooled %+v diverged:\nref = %s\ngot = %s", name, cell, ref, got)
				}
			}
		})
	}
}

// TestFusedRandomExpressions extends the property-based sweep to
// WithOptimize (named like the grid): random finite-generator expressions evaluated under
// interp.WithOptimize must match the sequential reference.
func TestFusedRandomExpressions(t *testing.T) {
	const prelude = `
def gen(a, b) { suspend a to b; }
def double(x) { return x * 2; }
`
	iterations := 120
	if testing.Short() {
		iterations = 25
	}
	eg := &exprGen{rng: rand.New(rand.NewSource(7))}
	for i := 0; i < iterations; i++ {
		c := Case{Name: fmt.Sprintf("opt-rand-%d", i), Program: prelude, Expr: eg.expr(3)}
		ref := reference(t, c)
		got, err := Sequential(c, interp.WithOptimize())
		if err != nil {
			t.Fatalf("%s (%s) optimized: %v", c.Name, c.Expr, err)
		}
		if !got.Equal(ref) {
			t.Fatalf("%s: %s\noptimized diverged:\nref = %s\ngot = %s", c.Name, c.Expr, ref, got)
		}
	}
}

// exprGen builds random well-formed expressions over FINITE generators —
// the transform package's generative grammar, pointed at the transports
// instead of the normalizer.
type exprGen struct{ rng *rand.Rand }

func (g *exprGen) expr(depth int) string {
	if depth <= 0 {
		return g.leaf()
	}
	switch g.rng.Intn(10) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.expr(depth-1), g.expr(depth-1))
	case 1:
		return fmt.Sprintf("(%s * %s)", g.expr(depth-1), g.expr(depth-1))
	case 2:
		return fmt.Sprintf("(%s | %s)", g.expr(depth-1), g.expr(depth-1))
	case 3:
		return fmt.Sprintf("(%s & %s)", g.expr(depth-1), g.expr(depth-1))
	case 4:
		return fmt.Sprintf("(%s > %s)", g.expr(depth-1), g.expr(depth-1))
	case 5:
		return fmt.Sprintf("gen(%s, %s)", g.leaf(), g.leaf())
	case 6:
		return fmt.Sprintf("double(%s)", g.expr(depth-1))
	case 7:
		return fmt.Sprintf("(%s to %s)", g.leaf(), g.leaf())
	case 8:
		return fmt.Sprintf("[%s, %s]", g.expr(depth-1), g.leaf())
	default:
		return fmt.Sprintf("-(%s)", g.expr(depth-1))
	}
}

func (g *exprGen) leaf() string { return fmt.Sprintf("%d", 1+g.rng.Intn(4)) }

// TestDifferentialRandomExpressions drives property-based random
// expressions through a sub-grid chosen to hit the interesting flush
// regimes, plus the remote transport.
func TestDifferentialRandomExpressions(t *testing.T) {
	const prelude = `
def gen(a, b) { suspend a to b; }
def double(x) { return x * 2; }
`
	iterations := 120
	if testing.Short() {
		iterations = 25
	}
	addr := loopback(t)
	eg := &exprGen{rng: rand.New(rand.NewSource(42))}
	cells := []GridCell{{1, 2}, {2, 8}, {64, 64}}
	for i := 0; i < iterations; i++ {
		c := Case{Name: fmt.Sprintf("rand-%d", i), Program: prelude, Expr: eg.expr(3)}
		ref := reference(t, c)
		for _, cell := range cells {
			got, err := Batched(c, cell.Buffer, cell.Batch)
			if err != nil {
				t.Fatalf("%s (%s) batched %+v: %v", c.Name, c.Expr, cell, err)
			}
			if !got.Equal(ref) {
				t.Fatalf("%s: %s\nbatched %+v diverged:\nref = %s\ngot = %s",
					c.Name, c.Expr, cell, ref, got)
			}
		}
		got, err := Remote(c, addr, remote.Config{Buffer: 8, Batch: 4})
		if err != nil {
			t.Fatalf("%s (%s) remote: %v", c.Name, c.Expr, err)
		}
		if !got.Equal(ref) {
			t.Fatalf("%s: %s\nremote diverged:\nref = %s\ngot = %s", c.Name, c.Expr, ref, got)
		}
	}
}

// TestDifferentialScheduleStress replays the corpus through small transport
// queues wrapped in seeded pause schedules: capacity 1 and 2 keep the
// producer blocking for space and the hop per value or nearly so, capacity 8
// lets runs of every length up to the cap form behind a paused consumer, the
// schedule's pauses stagger the two sides into EOS-mid-run interleavings,
// and the trace must still be byte-identical.
func TestDifferentialScheduleStress(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, c := range corpus(t) {
		c := c
		if c.Name == "big-stream" {
			c.Max = 500 // pauses make the full 3000 needlessly slow
		}
		t.Run(c.Name, func(t *testing.T) {
			ref := reference(t, c)
			if c.Max > 0 && len(ref.Images) > c.Max {
				ref.Images = ref.Images[:c.Max]
			}
			for _, seed := range seeds {
				for _, capacity := range []int{1, 2, 8} {
					for _, batch := range []int{3, 8} {
						seed, capacity, batch := seed, capacity, batch
						mk := func() queue.Queue[value.V] {
							return NewSchedQueue(queue.NewArrayBlocking[value.V](capacity), seed)
						}
						got, err := BatchedWithQueue(c, mk, batch)
						if err != nil {
							t.Fatalf("seed=%d cap=%d batch=%d: %v", seed, capacity, batch, err)
						}
						if !got.Equal(ref) {
							t.Fatalf("seed=%d cap=%d batch=%d diverged:\nref = %s\ngot = %s",
								seed, capacity, batch, ref, got)
						}
					}
				}
			}
		})
	}
}

// TestStopMidFlushUnderSchedule forces Stop to land while the producer is
// parked inside a paused Put: the pipe must release the producer (no
// goroutine leak), the very next Next must fail, and no error may be
// invented.
func TestStopMidFlushUnderSchedule(t *testing.T) {
	before := runtime.NumGoroutine()
	for seed := int64(0); seed < 8; seed++ {
		mk := func() queue.Queue[value.V] {
			return NewSchedQueue(queue.NewArrayBlocking[value.V](1), seed)
		}
		c := Case{Name: "stop-mid-flush", Expr: "1 to 100000"}
		in, err := newInterp(c)
		if err != nil {
			t.Fatal(err)
		}
		g, err := in.EvalGen(c.Expr)
		if err != nil {
			t.Fatal(err)
		}
		p := pipe.NewBatchedWithQueue(core.NewFirstClass(g), mk, 8)
		for i := 0; i < 5; i++ {
			if _, ok := p.Next(); !ok {
				t.Fatalf("seed %d: pipe failed after %d values: %v", seed, i, p.Err())
			}
		}
		p.Stop()
		if v, ok := p.Next(); ok {
			t.Fatalf("seed %d: stopped pipe yielded %s", seed, value.Image(v))
		}
		if err := p.Err(); err != nil {
			t.Fatalf("seed %d: Stop invented error %v", seed, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines before=%d now=%d: producer leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
