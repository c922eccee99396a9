package mapreduce

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/pool"
	"junicon/internal/value"
)

// chanGen yields values from a channel: it blocks while the channel is
// empty and is exhausted when the channel closes — a source whose tail
// cannot be read until the test releases it.
type chanGen struct{ ch chan value.V }

func (g *chanGen) Next() (value.V, bool) { v, ok := <-g.ch; return v, ok }
func (g *chanGen) Restart()              {}

// eventually polls cond, yielding between polls, until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

var identity = core.ValProc("id", 1, func(a []value.V) value.V { return a[0] })

// TestMapFlatStreamsBeforeSourceExhausted is the regression test for the
// drain-the-source-first bug: with a window of 2 single-element chunks,
// the first mapped result must arrive while the rest of the source is
// still blocked in the producer. The pre-window scheduler pulled every
// chunk before spawning anything, which deadlocks here.
func TestMapFlatStreamsBeforeSourceExhausted(t *testing.T) {
	ch := make(chan value.V, 2)
	ch <- value.IntV(1)
	ch <- value.IntV(2)
	src := value.NewProc("src", 0, func(...value.V) core.Gen { return &chanGen{ch: ch} })
	cfg := Config{ChunkSize: 1, Buffer: 2, Workers: 2, Window: 2}
	g := cfg.MapFlat(identity, src)

	got := make(chan int64, 1)
	go func() {
		v, ok := g.Next()
		if !ok {
			got <- -1
			return
		}
		got <- intVal(v)
	}()
	select {
	case v := <-got:
		if v != 1 {
			t.Fatalf("first result = %d, want 1", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no result arrived while the source tail was still blocked")
	}

	ch <- value.IntV(3)
	close(ch)
	rest := core.Drain(g, 0)
	want := []int64{2, 3}
	if len(rest) != len(want) {
		t.Fatalf("rest = %v", rest)
	}
	for i := range want {
		if intVal(rest[i]) != want[i] {
			t.Fatalf("rest[%d] = %d, want %d", i, intVal(rest[i]), want[i])
		}
	}
}

// TestMapReduceStreamsBeforeSourceExhausted is the same regression for the
// reducing form: the first per-chunk reduced result must stream out while
// the source is still blocked.
func TestMapReduceStreamsBeforeSourceExhausted(t *testing.T) {
	ch := make(chan value.V, 2)
	ch <- value.IntV(5)
	ch <- value.IntV(7)
	src := value.NewProc("src", 0, func(...value.V) core.Gen { return &chanGen{ch: ch} })
	cfg := Config{ChunkSize: 1, Buffer: 2, Workers: 2, Window: 2}
	g := cfg.MapReduce(identity, src, sum2, value.IntV(0))

	got := make(chan int64, 1)
	go func() {
		v, ok := g.Next()
		if !ok {
			got <- -1
			return
		}
		got <- intVal(v)
	}()
	select {
	case v := <-got:
		if v != 5 {
			t.Fatalf("first chunk result = %d, want 5", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no chunk result arrived while the source tail was still blocked")
	}

	close(ch)
	rest := core.Drain(g, 0)
	if len(rest) != 1 || intVal(rest[0]) != 7 {
		t.Fatalf("rest = %v, want [7]", rest)
	}
}

// TestWindowBoundsGoroutines drives a 10000-chunk source and samples the
// goroutine count throughout: the windowed scheduler must keep peak
// goroutines bounded by workers + window (plus harness slack), where the
// unwindowed scheduler spawned one goroutine per chunk up front.
func TestWindowBoundsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	const workers, window = 4, 8
	cfg := Config{ChunkSize: 1, Workers: workers, Window: window}
	g := cfg.MapReduce(identity, sourceProc(10000), sum2, value.IntV(0))

	peak, n := 0, 0
	total := int64(0)
	core.Each(g, func(v value.V) bool {
		total += intVal(v)
		if n%50 == 0 {
			if cur := runtime.NumGoroutine(); cur > peak {
				peak = cur
			}
		}
		n++
		return true
	})
	if n != 10000 || total != 50005000 {
		t.Fatalf("drained %d chunks, total %d", n, total)
	}
	limit := base + workers + window + 8
	if peak > limit {
		t.Fatalf("peak goroutines %d > %d (base %d + workers %d + window %d + slack)",
			peak, limit, base, workers, window)
	}
}

// TestWindowGridEquivalence sweeps workers × window over both forms: every
// cell must produce the same ordered sequence (window and pool sizing are
// performance knobs, not semantics).
func TestWindowGridEquivalence(t *testing.T) {
	wantFlat := make([]int64, 20)
	for i := range wantFlat {
		wantFlat[i] = int64((i + 1) * (i + 1))
	}
	// ChunkSize 3 over 1..20: chunks [1..3], [4..6], ..., [19,20].
	var wantRed []int64
	for lo := int64(1); lo <= 20; lo += 3 {
		s := int64(0)
		for v := lo; v <= 20 && v < lo+3; v++ {
			s += v * v
		}
		wantRed = append(wantRed, s)
	}
	for _, workers := range []int{0, 1, 3} {
		for _, window := range []int{0, 1, 2, 16} {
			cfg := Config{ChunkSize: 3, Workers: workers, Window: window}
			flat := core.Drain(cfg.MapFlat(square, sourceProc(20)), 0)
			if len(flat) != len(wantFlat) {
				t.Fatalf("w=%d win=%d: flat = %v", workers, window, flat)
			}
			for i := range wantFlat {
				if intVal(flat[i]) != wantFlat[i] {
					t.Fatalf("w=%d win=%d: flat[%d] = %d, want %d",
						workers, window, i, intVal(flat[i]), wantFlat[i])
				}
			}
			red := core.Drain(cfg.MapReduce(square, sourceProc(20), sum2, value.IntV(0)), 0)
			if len(red) != len(wantRed) {
				t.Fatalf("w=%d win=%d: reduced = %v", workers, window, red)
			}
			for i := range wantRed {
				if intVal(red[i]) != wantRed[i] {
					t.Fatalf("w=%d win=%d: reduced[%d] = %d, want %d",
						workers, window, i, intVal(red[i]), wantRed[i])
				}
			}
		}
	}
}

// TestChunkGenAutoRestarts drives the same chunk generator through two
// full cycles, on and off an exact chunk boundary: the second cycle must
// reproduce the first (regression: the boundary case used to report one
// spurious empty cycle between drives).
func TestChunkGenAutoRestarts(t *testing.T) {
	for _, n := range []int64{8, 10} { // 8 = exact boundary at size 4
		g := ChunkGen(core.IntRange(1, n), 4)
		want := int((n + 3) / 4)
		for cycle := 0; cycle < 2; cycle++ {
			if got := core.Drain(g, 0); len(got) != want {
				t.Fatalf("n=%d cycle %d: %d chunks, want %d", n, cycle, len(got), want)
			}
		}
	}
}

// TestConfigPoolNotShutDown supplies an external pool: the scheduler must
// leave it running across cycles so the caller can keep using it.
func TestConfigPoolNotShutDown(t *testing.T) {
	pl := pool.New(2)
	defer pl.Shutdown()
	cfg := Config{ChunkSize: 4, Pool: pl}
	g := cfg.MapReduce(square, sourceProc(12), sum2, value.IntV(0))
	for round := 0; round < 2; round++ {
		if got := core.Drain(g, 0); len(got) != 3 {
			t.Fatalf("round %d: %v", round, got)
		}
	}
	if err := pl.Go(func() {}); err != nil {
		t.Fatalf("caller's pool was shut down: %v", err)
	}
}

// TestMapFlatLooksOneChunkAhead is the head-of-line regression test: the
// window drains in chunk order, so while the consumer sits on task 1 the
// worker running task 2 can only work as far as task 2's queue reaches.
// With Buffer unset that must be the whole chunk at a fan-out of 8 (a
// 1024-slot queue parked the worker after 128 of the 500 elements, and the
// drive ran one worker at a time); a Buffer that is set is honoured exactly.
func TestMapFlatLooksOneChunkAhead(t *testing.T) {
	const chunk, fan = 500, 8
	for _, row := range []struct {
		buffer int
		rest   int64 // elements task 2 gets through before it parks or ends
	}{
		{0, chunk},
		{16, 3}, // two elements' results queued, the third's first in hand
	} {
		t.Run(fmt.Sprintf("Buffer=%d", row.buffer), func(t *testing.T) {
			var late atomic.Int64 // elements of chunk 2 the mapper was applied to
			fanout := value.NewProc("fanout", 1, func(args ...value.V) core.Gen {
				if intVal(args[0]) > chunk {
					late.Add(1)
				}
				vs := make([]value.V, fan)
				for i := range vs {
					vs[i] = args[0]
				}
				return core.ValuesOf(vs)
			})
			cfg := Config{ChunkSize: chunk, Buffer: row.buffer, Workers: 2, Window: 2}
			g := cfg.MapFlat(fanout, sourceProc(2*chunk))
			if v, ok := g.Next(); !ok || intVal(v) != 1 {
				t.Fatalf("first result = %v %v, want 1", v, ok)
			}
			eventually(t, fmt.Sprintf("task 2 to get through %d elements", row.rest), func() bool {
				if n := late.Load(); n > row.rest {
					t.Fatalf("task 2 mapped %d elements, want it to rest at %d", n, row.rest)
				}
				return late.Load() == row.rest
			})
			if rest := core.Drain(g, 0); len(rest) != 2*chunk*fan-1 {
				t.Fatalf("drained %d more results, want %d", len(rest), 2*chunk*fan-1)
			}
		})
	}
}

// TestRestartMidCycleStrandsNothing: a reduce task stopped while it is still
// mapping finds its queue closed when it comes to publish, and unwinds. Its
// body is a plain struct generator, so that is all there is to unwind — as
// a core.NewGen coroutine it was left suspended at its yield for good, one
// goroutine per task the Restart caught in flight.
func TestRestartMidCycleStrandsNothing(t *testing.T) {
	pl := pool.New(2)
	defer pl.Shutdown()
	base := runtime.NumGoroutine()

	gate := make(chan struct{})
	var gated atomic.Int64
	hold := core.ValProc("hold", 1, func(a []value.V) value.V {
		if intVal(a[0]) > 2 { // every chunk after the first waits for the gate
			gated.Add(1)
			<-gate
		}
		return a[0]
	})
	cfg := Config{ChunkSize: 2, Pool: pl, Window: 6}
	g := cfg.MapReduce(hold, sourceProc(100), sum2, value.IntV(0))
	if v, ok := g.Next(); !ok || intVal(v) != 3 {
		t.Fatalf("first chunk = %v %v, want 3", v, ok)
	}
	// Both workers are inside a task, parked at the gate; more tasks queue
	// behind them. Restart stops them all mid-cycle.
	eventually(t, "both workers at the gate", func() bool { return gated.Load() == 2 })
	g.Restart()
	close(gate)
	eventually(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= base })

	// The generator is as restartable as ever.
	if got := core.Drain(g, 0); len(got) != 50 {
		t.Fatalf("cycle after Restart: %d chunks, want 50", len(got))
	}
}

// TestRestartMidCycleReleasesWorkers: MapFlat producers parked on full task
// queues hold their pool workers, so a Restart from outside must reach the
// window and stop them — abandoned, they starved the next cycle's tasks of
// workers for good.
func TestRestartMidCycleReleasesWorkers(t *testing.T) {
	pl := pool.New(2) // shut down on success only: Shutdown waits for wedged workers
	cfg := Config{ChunkSize: 10, Buffer: 1, Pool: pl}
	g := cfg.MapFlat(identity, sourceProc(100))
	if v, ok := g.Next(); !ok || intVal(v) != 1 {
		t.Fatalf("first result = %v %v, want 1", v, ok)
	}
	g.Restart()
	done := make(chan int, 1)
	go func() { done <- len(core.Drain(g, 0)) }()
	select {
	case n := <-done:
		if n != 100 {
			t.Fatalf("cycle after Restart: %d results, want 100", n)
		}
		pl.Shutdown()
	case <-time.After(10 * time.Second):
		t.Fatal("cycle after Restart never finished: the abandoned tasks still hold the workers")
	}
}
