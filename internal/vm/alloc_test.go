//go:build !race

// Allocation guards for the vm's steady state. testing.AllocsPerRun is
// meaningless under -race (the detector allocates), so this file is built
// out of race runs; CI runs it in the plain test pass.

package vm_test

import (
	"io"
	"testing"

	"junicon/internal/interp"
	"junicon/internal/value"
	"junicon/internal/vm"
)

// TestSteadyStateAllocs pins the headline frame property: once a frame is
// warm, suspending and resuming it allocates nothing but the values that
// leave it. Integers inside the frame stay unboxed, so a loop past the
// interned small-integer window allocates no more than one inside it; what
// the frame yields or returns is boxed on the way out, and boxes counts
// those that fall outside the window.
func TestSteadyStateAllocs(t *testing.T) {
	in := interp.New(interp.WithOutput(io.Discard), interp.WithVM())
	if err := in.LoadProgram(`
def sumTo(n) { s := 0; every s +:= (1 to n); return s; }
def lastBy3(n) { every x := 1 to n by 3; return x; }
`); err != nil {
		t.Fatal(err)
	}
	productBoxes := 0 // (1 to 60) * (1 to 60) yields its products boxed
	for i := 1; i <= 60; i++ {
		for j := 1; j <= 60; j++ {
			if i*j > 1024 {
				productBoxes++
			}
		}
	}
	cases := []struct {
		name, expr     string
		results, boxes int
	}{
		{"range", "1 to 256", 256, 0},
		{"range-by", "1 to 1000 by 4", 250, 0},
		{"product", "(1 to 16) * (1 to 16)", 256, 0},
		{"alternation", "(1 to 100) | (1 to 100)", 200, 0},
		{"limit", "(1 to 1000) \\ 100", 100, 0},
		// Counter and accumulator run far past 1024 in slots; only the
		// returned total is boxed.
		{"every-past-intern", "sumTo(4000)", 1, 1},
		{"range-by-past-intern", "lastBy3(4000)", 1, 1},
		// BenchmarkVMProduct's expression: every product above 1024 leaves
		// the frame as a yield, so it keeps one box each.
		{"product-past-intern", "(1 to 60) * (1 to 60)", 3600, productBoxes},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := mustFrame(t, in, c.expr)
			// Warm run: first drain grows the operand/choice stacks.
			warm := drainCount(t, f, c.results)
			if warm != c.results {
				t.Fatalf("warm drain produced %d results, want %d", warm, c.results)
			}
			// Auto-restarted steady-state drains allocate only the boxes.
			allocs := testing.AllocsPerRun(10, func() {
				if n := drainCountFast(f); n != c.results {
					t.Fatalf("steady drain produced %d results, want %d", n, c.results)
				}
			})
			if allocs != float64(c.boxes) {
				t.Errorf("steady-state drain allocates %.1f per run, want %d", allocs, c.boxes)
			}
		})
	}
}

// TestRecursionReusesFrames pins the call-site frame release: a frame
// that returns hands the child frames cached at its call sites back to
// their pool. Each run drains fib(11) — 287 activations, never more than
// 11 live — from a fresh caller frame, whose call-site cache starts empty,
// so every activation's frame must come from the pool: the run pays only
// for the caller frame itself (the frame, its slots and stack, aux cells
// and choice stack, and its call site's argument scratch).
func TestRecursionReusesFrames(t *testing.T) {
	in := interp.New(interp.WithOutput(io.Discard), interp.WithVM())
	if err := in.LoadProgram(`def fib(n) { if n < 2 then return n; return fib(n-1) + fib(n-2); }`); err != nil {
		t.Fatal(err)
	}
	m, err := in.ExprMachine("fib(11)")
	if err != nil {
		t.Fatal(err)
	}
	drainCount(t, m.NewFrame(), 1)
	const callerFrame = 5
	allocs := testing.AllocsPerRun(10, func() {
		if n := drainCountFast(m.NewFrame()); n != 1 {
			t.Fatalf("fib(11) produced %d results", n)
		}
	})
	if allocs > callerFrame {
		t.Errorf("a fresh fib(11) allocates %.1f per run, want at most the caller frame's %d", allocs, callerFrame)
	}
}

// TestFrameReuseAllocs pins frame recycling across Restart: restarting and
// re-draining a generator frame is allocation-free — the frame, slots,
// stacks and choice points are all reused in place.
func TestFrameReuseAllocs(t *testing.T) {
	in := interp.New(interp.WithOutput(io.Discard), interp.WithVM())
	f := mustFrame(t, in, "1 to 128")
	drainCount(t, f, 128)
	allocs := testing.AllocsPerRun(10, func() {
		f.Restart()
		if n := drainCountFast(f); n != 128 {
			t.Fatalf("drain after Restart produced %d results", n)
		}
	})
	if allocs != 0 {
		t.Errorf("Restart+drain allocates %.1f per run, want 0", allocs)
	}
}

// TestCompiledCallAllocs pins the call-site frame cache: a compiled caller
// driving a compiled callee reuses the cached child frame, so the steady
// state of a cross-procedure generator drain is allocation-free as well.
func TestCompiledCallAllocs(t *testing.T) {
	in := interp.New(interp.WithOutput(io.Discard), interp.WithVM())
	if err := in.LoadProgram(`def gen(n) { suspend 1 to n; }`); err != nil {
		t.Fatal(err)
	}
	f := mustFrame(t, in, "gen(200)")
	drainCount(t, f, 200)
	allocs := testing.AllocsPerRun(10, func() {
		if n := drainCountFast(f); n != 200 {
			t.Fatalf("steady drain produced %d results", n)
		}
	})
	if allocs != 0 {
		t.Errorf("compiled call drain allocates %.1f per run, want 0", allocs)
	}
}

// TestSnapshotLeavesDrainAllocFree pins the durability layer's zero-cost
// claim: the snapshot machinery lives entirely off the hot path, so a
// frame that has been captured mid-iteration still drains with zero
// allocations afterwards — Next pays nothing for snapshot support,
// before or after a capture.
func TestSnapshotLeavesDrainAllocFree(t *testing.T) {
	in := interp.New(interp.WithOutput(io.Discard), interp.WithVM())
	if err := in.LoadProgram(`def gen(n) { suspend 1 to n; }`); err != nil {
		t.Fatal(err)
	}
	f := mustFrame(t, in, "gen(200)")
	// Suspend mid-iteration and capture the tower (caller + live child).
	for i := 0; i < 7; i++ {
		if _, ok := f.Next(); !ok {
			t.Fatalf("frame exhausted after %d values", i)
		}
	}
	if _, err := vm.Capture(f); err != nil {
		t.Fatalf("capture: %v", err)
	}
	if n := drainCountFast(f); n != 193 {
		t.Fatalf("post-capture drain produced %d results, want 193", n)
	}
	// Auto-restarted steady-state drains after the capture stay free.
	allocs := testing.AllocsPerRun(10, func() {
		if n := drainCountFast(f); n != 200 {
			t.Fatalf("steady drain produced %d results, want 200", n)
		}
	})
	if allocs != 0 {
		t.Errorf("drain after snapshot allocates %.1f per run, want 0", allocs)
	}
}

// drainCount drains the exhausted-or-fresh frame once, counting results.
func drainCount(t *testing.T, g interface {
	Next() (value.V, bool)
}, want int) int {
	t.Helper()
	n := 0
	for {
		if _, ok := g.Next(); !ok {
			return n
		}
		n++
		if n > want {
			t.Fatalf("drain exceeded %d results", want)
		}
	}
}

// drainCountFast is drainCount without the testing plumbing (so the
// AllocsPerRun body itself is allocation-free).
func drainCountFast(g interface {
	Next() (value.V, bool)
}) int {
	n := 0
	for {
		if _, ok := g.Next(); !ok {
			return n
		}
		n++
	}
}
