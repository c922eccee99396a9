package pipe

import (
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

// waitSteps blocks until the producer has taken at least n source steps.
func waitSteps(t *testing.T, steps *atomic.Int64, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for steps.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("producer took %d steps, want >= %d", steps.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitGoroutines waits for the goroutine count to drop back near base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines base=%d now=%d: producer leaked", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
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
	// No further source progress after release: the producer unwound.
	n := steps.Load()
	time.Sleep(20 * time.Millisecond)
	if got := steps.Load(); got != n {
		t.Fatalf("producer advanced from %d to %d after First", n, got)
	}
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

// TestFirstReleasesBlockedBatchedProducer extends the Stop-unblocks
// regression to the batch flush path: with batch > buffer the eager
// producer fills a whole run and blocks inside its flush PutBatch; First
// must take one value and release it.
func TestFirstReleasesBlockedBatchedProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	var steps atomic.Int64
	p := FromGenBatched(countingGen(&steps), 2, 4)
	p.StartEager()
	// The producer accumulates a full run of 4, then its flush delivers 2
	// into the bounded queue and blocks for space: exactly 4 steps.
	waitSteps(t, &steps, 4)
	time.Sleep(20 * time.Millisecond)
	if got := steps.Load(); got != 4 {
		t.Fatalf("producer took %d steps against buffer 2 batch 4, want exactly 4", got)
	}

	v, ok := p.First()
	if !ok || intVal(value.Deref(v)) != 0 {
		t.Fatalf("First = %v %v, want 0 true", v, ok)
	}
	waitGoroutines(t, before)
	assertStopped(t, p)
}

// TestStopReleasesProducerMidFlush: Stop with no Next at all — the closed
// queue must abort the in-flight PutBatch (partial delivery discarded with
// the run, mirroring the unbatched producer's in-hand value).
func TestStopReleasesProducerMidFlush(t *testing.T) {
	before := runtime.NumGoroutine()
	var steps atomic.Int64
	p := FromGenBatched(countingGen(&steps), 1, 8)
	p.StartEager()
	waitSteps(t, &steps, 8)
	p.Stop()
	waitGoroutines(t, before)
	assertStopped(t, p)
}
