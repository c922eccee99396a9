package junicon_test

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"junicon"
	"junicon/internal/vm"
)

// settleGoroutines waits for the goroutine count to fall to at most want,
// returning the last count seen.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestAbandonedGeneratorsHoldNoGoroutines: a procedure generator the
// embedder drops before it ends is a frame, not a parked coroutine. A
// hundred taken for one result each, or twenty stopped at a result cap as
// the REPL stops a line (Eval with its cap), leave the goroutine count
// where it was.
func TestAbandonedGeneratorsHoldNoGoroutines(t *testing.T) {
	in := junicon.NewInterp(io.Discard)
	if err := in.LoadProgram(`def g(n) { every i := 1 to n do suspend i; }`); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		g, err := in.EvalGen("g(10)")
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := g.Next(); !ok || junicon.Image(v) != "1" {
			t.Fatalf("g(10) first result = %v, %v", v, ok)
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("100 abandoned g(10) left %d goroutines, %d before", n, base)
	}
	for i := 0; i < 20; i++ {
		if vs, err := in.Eval("g(1000)", 100); err != nil || len(vs) != 100 {
			t.Fatalf("g(1000) capped at 100: %d results, %v", len(vs), err)
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("20 capped g(1000) left %d goroutines, %d before", n, base)
	}
}

// compiledCalls counts the calls of the compiled procedure name since the
// profile was reset.
func compiledCalls(name string) int64 {
	for _, p := range vm.SnapshotProfile() {
		if p.Name == name {
			return p.Calls
		}
	}
	return 0
}

// TestCallsRunCompiled: the top-level statements of a loaded program run
// compiled, so the procedures they call run their compiled frames; and
// turning &trace on does not send calls back to the tree walk.
func TestCallsRunCompiled(t *testing.T) {
	vm.ResetProfile()
	vm.EnableProfiling()
	defer vm.DisableProfiling()
	in := junicon.NewInterp(io.Discard)
	if err := in.LoadProgram(`global x; def sq(n) { return n * n; }; every i := 1 to 3 do x := sq(i);`); err != nil {
		t.Fatal(err)
	}
	if v, _ := in.Global("x"); junicon.Image(v) != "9" {
		t.Fatalf("x = %v, want 9", junicon.Image(v))
	}
	if n := compiledCalls("sq"); n != 3 {
		t.Fatalf("loading: sq's compiled frame ran %d times, want 3", n)
	}
	var trace bytes.Buffer
	in.EnableTrace(&trace)
	if vs, err := in.Eval("sq(1 to 4)", 0); err != nil || len(vs) != 4 {
		t.Fatalf("sq(1 to 4): %d results, %v", len(vs), err)
	}
	if n := compiledCalls("sq"); n != 7 || !strings.Contains(trace.String(), "sq returned 16") {
		t.Fatalf("traced: sq's compiled frame ran %d times, want 7; trace:\n%s", n, trace.String())
	}
}
