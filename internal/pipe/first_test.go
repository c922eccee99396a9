package pipe

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/value"
)

// countingGen yields 0,1,2,… forever, counting how many values the
// producer pulled from it.
func countingGen(steps *atomic.Int64) core.Gen {
	return core.NewGen(func(yield func(value.V) bool) {
		for i := 0; ; i++ {
			steps.Add(1)
			if !yield(value.NewInt(int64(i))) {
				return
			}
		}
	})
}

// seqGen is countingGen in struct form, its cursor atomic: unlike a
// coroutine it may be restarted from the test's goroutine while a stopped
// producer is still winding down on its own.
type seqGen struct{ next, steps atomic.Int64 }

func (g *seqGen) Next() (value.V, bool) {
	g.steps.Add(1)
	return value.NewInt(g.next.Add(1) - 1), true
}

func (g *seqGen) Restart() { g.next.Store(0) }

// eventually polls cond, yielding between polls, until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// waitSteps blocks until the producer has taken exactly n source steps —
// the throttle's resting point; overshooting it is a failure.
func waitSteps(t *testing.T, steps *atomic.Int64, n int64) {
	t.Helper()
	eventually(t, fmt.Sprintf("source step %d", n), func() bool {
		got := steps.Load()
		if got > n {
			t.Fatalf("producer took %d steps, want it throttled at %d", got, n)
		}
		return got == n
	})
}

// waitGoroutines waits for the goroutine count to drop back near base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	eventually(t, fmt.Sprintf("goroutines back to %d (producer leaked?)", base), func() bool {
		return runtime.NumGoroutine() <= base+2
	})
}

// TestFirstStopsEagerProducer: First is Next+Stop, and that must hold when
// the pipe was started eagerly — the future takes its single value and the
// producer, already running and blocked on the bounded queue, is released
// rather than leaked.
func TestFirstStopsEagerProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	var steps atomic.Int64
	p := FromGen(countingGen(&steps), 1)
	p.StartEager()
	waitSteps(t, &steps, 2) // one value queued, one in hand, blocked in Put

	v, ok := p.First()
	if !ok || intVal(value.Deref(v)) != 0 {
		t.Fatalf("First = %v %v, want 0 true", v, ok)
	}
	waitGoroutines(t, before)
	assertStopped(t, p)
}

// assertStopped: Stop discards what the producer had committed to the
// transport queue along with the producer, so the very next Next fails —
// it may never block, drain leftovers or keep producing.
func assertStopped(t *testing.T, p *Pipe) {
	t.Helper()
	if v, ok := p.Next(); ok {
		t.Fatalf("stopped pipe yielded %v", v)
	}
}

// TestFirstReleasesBlockedBatchedProducer: a run cap changes nothing on the
// producer side — against buffer 2 the eager producer queues two values and
// blocks in Put with the third in hand, whatever the cap; First takes its
// one value (and a run with it) and must release the producer.
func TestFirstReleasesBlockedBatchedProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	var steps atomic.Int64
	p := FromGenBatched(countingGen(&steps), 2, 4)
	p.StartEager()
	waitSteps(t, &steps, 3)

	v, ok := p.First()
	if !ok || intVal(value.Deref(v)) != 0 {
		t.Fatalf("First = %v %v, want 0 true", v, ok)
	}
	waitGoroutines(t, before)
	assertStopped(t, p)
}

// TestHeldRunIsDiscarded: the values of a run the consumer has taken from
// the queue but not yet been handed belong to the stopped producer as much
// as the queued ones do — Stop, First, Restart and Refresh must each leave
// none of them deliverable.
func TestHeldRunIsDiscarded(t *testing.T) {
	// held returns a pipe over 0, 1, 2, … whose consumer has been handed 0
	// and holds 1..7 as a run, with the producer parked again behind a
	// refilled queue (8 more, one in hand).
	held := func(t *testing.T) *Pipe {
		src := &seqGen{}
		p := FromGen(src, 8)
		p.StartEager()
		waitSteps(t, &src.steps, 9)
		if v, ok := p.Next(); !ok || intVal(v) != 0 {
			t.Fatalf("first Next = %v %v, want 0 true", v, ok)
		}
		waitSteps(t, &src.steps, 17)
		if g := p.cur.Load(); g.n-g.i != 7 {
			t.Fatalf("consumer holds %d values, want a run of 7", g.n-g.i)
		}
		return p
	}
	t.Run("Stop", func(t *testing.T) {
		p := held(t)
		p.Stop()
		assertStopped(t, p)
	})
	t.Run("First", func(t *testing.T) {
		p := held(t)
		if v, ok := p.First(); !ok || intVal(v) != 1 {
			t.Fatalf("First = %v %v, want the next value 1", v, ok)
		}
		assertStopped(t, p)
	})
	t.Run("Restart", func(t *testing.T) {
		p := held(t)
		defer p.Stop()
		p.Restart()
		if v, ok := p.Next(); !ok || intVal(v) != 0 {
			t.Fatalf("Next after Restart = %v %v, want the fresh sequence's 0", v, ok)
		}
	})
	t.Run("Refresh", func(t *testing.T) {
		p := held(t)
		fresh := p.Refresh().(*Pipe)
		defer fresh.Stop()
		assertStopped(t, p)
		if v, ok := fresh.Next(); !ok || intVal(v) != 0 {
			t.Fatalf("refreshed Next = %v %v, want the fresh sequence's 0", v, ok)
		}
	})
}
